//! Ablation benches for the design constants DESIGN.md calls out:
//!
//! * **Dormancy length `D_max`** in Optimal-Silent-SSR: too short and the
//!   in-reset leader election keeps failing (extra reset rounds); too long
//!   and every reset pays for it. The paper requires `Θ(n)`.
//! * **Freshness bound `T_H`** in Sublinear-Time-SSR: shorter timers expire
//!   accusation evidence before it can catch the collision; longer timers
//!   make trees bigger. The paper requires `Θ(τ_{H+1})`.
//! * **Reset counter `R_max`**: must dominate epidemic path lengths
//!   (`Ω(log n)`); the paper uses `60·ln n`, this reproduction defaults to
//!   `4·ln n`.

use std::cell::Cell;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use population::{
    ConvergenceSample, RankingProtocol, Runner, Simulation, TrialOutcome, TrialSettings,
};
use ssle::adversary;
use ssle::optimal_silent::{OptimalSilentSsr, OssState};
use ssle::reset::ResetParams;
use ssle::sublinear::collision::CollisionParams;
use ssle::sublinear::SublinearTimeSsr;

fn run_oss(n: usize, d_max_mult: u32, r_max_mult: f64, seed: u64) {
    let r_max = ResetParams::r_max_for(n, r_max_mult);
    let reset = ResetParams::new(r_max, d_max_mult * n as u32).expect("positive");
    let protocol = OptimalSilentSsr::with_params(n, 10 * n as u32, reset);
    let settings = TrialSettings::new(1, seed, 4000 * (n as u64).pow(2), 4 * n as u64);
    let initial = vec![OssState::settled(1, 0); n];
    assert!(converges(settings, protocol, initial));
}

fn run_sublinear(n: usize, h: u32, t_h_mult: f64, seed: u64) {
    let name_bits = SublinearTimeSsr::name_bits_for(n);
    let collision = CollisionParams {
        h,
        s_max: 4 * (n as u64) * (n as u64),
        t_h: CollisionParams::t_h_for(n, h, t_h_mult),
    };
    let r_max = ResetParams::r_max_for(n, 4.0);
    let reset = ResetParams::new(r_max, (2 * r_max).max(2 * name_bits as u32)).expect("positive");
    let protocol = SublinearTimeSsr::with_params(n, name_bits, collision, reset);
    let settings = TrialSettings::new(1, seed, 4000 * (n as u64).pow(2), 4 * n as u64);
    let initial = adversary::planted_collision_configuration(&protocol);
    assert!(converges(settings, protocol, initial));
}

/// Whether every trial of `protocol` from `initial` reaches a stable
/// ranking within the settings' budget.
fn converges<P>(settings: TrialSettings, protocol: P, initial: Vec<P::State>) -> bool
where
    P: RankingProtocol + Clone + Sync,
    P::State: Sync,
{
    let trials = Runner::new(settings).run(
        1,
        |s| {
            let mut sim = Simulation::new(protocol.clone(), initial.clone(), s.execution);
            TrialOutcome::measure(s.trial, &mut sim, &settings)
        },
        |_| {},
    );
    ConvergenceSample::from_trials(&trials).all_converged()
}

fn bench_ablations(c: &mut Criterion) {
    let n = 32;

    let mut group = c.benchmark_group("ablation/oss_d_max_multiplier");
    group.sample_size(10);
    for d_mult in [1u32, 4, 16] {
        let seed = Cell::new(1u64);
        group.bench_with_input(BenchmarkId::from_parameter(d_mult), &d_mult, |b, &m| {
            b.iter(|| {
                let s = seed.get();
                seed.set(s + 1);
                run_oss(n, m, 4.0, s);
            })
        });
    }
    group.finish();

    let mut group = c.benchmark_group("ablation/oss_r_max_multiplier");
    group.sample_size(10);
    for r_mult in [1.0f64, 4.0, 60.0] {
        let seed = Cell::new(1u64);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{r_mult}")),
            &r_mult,
            |b, &m| {
                b.iter(|| {
                    let s = seed.get();
                    seed.set(s + 1);
                    run_oss(n, 4, m, s);
                })
            },
        );
    }
    group.finish();

    let mut group = c.benchmark_group("ablation/sublinear_t_h_multiplier");
    group.sample_size(10);
    for t_mult in [1.0f64, 4.0, 16.0] {
        let seed = Cell::new(1u64);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{t_mult}")),
            &t_mult,
            |b, &m| {
                b.iter(|| {
                    let s = seed.get();
                    seed.set(s + 1);
                    run_sublinear(n, 2, m, s);
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_ablations);
criterion_main!(benches);
