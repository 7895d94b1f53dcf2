//! Pins the agent-array engine's executions of Optimal-Silent-SSR.
//!
//! Every run method of [`Simulation`] (`run`, `run_until`,
//! `run_until_stably_ranked` and its `_timeline` form) is driven under each
//! plug-in the hot loop folds at compile time or branches on at run time: no
//! hook, a [`TelemetryObserver`], a fault plan, omission, one-way
//! application, both reliability faults at once, a recording [`Metrics`]
//! sink, a Zipf scheduler policy and the ring graph. The final
//! configuration (as an FNV-1a digest of its `Debug` form), the interaction
//! count, the RNG stream position and the outcome are compared with values
//! recorded from the engine as it stood before its run loops were merged
//! into one. A rewrite of the loop or of the protocol's transition that
//! changes any execution, or any hook's view of it, fails here.
//!
//! The stable-ranking loop's edges are pinned too, under the hooks whose
//! runs converge: a confirmation window of 0, a start that is already
//! ranked, a budget that ends inside an open window, a budget equal to
//! the window's end (where convergence wins over exhaustion) and a window
//! that ends on a metrics flush boundary.
//!
//! Chaos and churn runs are pinned the same way, each line adding a digest
//! of the run's report (its `Debug` form): `run_chaos` under every hook
//! above, with one-shot faults the run recovers from and a soak of
//! repeating faults continued by a second call; `run_dynamics` under join,
//! leave and replace churn (with the population clamps), pinned Byzantine
//! agents, a fault plan mixing at-time, after-convergence and repeating
//! triggers, all of them at once under a metrics sink, and churn already
//! due when a run starts. These values were recorded from the engine as it
//! stood while chaos and churn runs still kept loops of their own.

use population::dynamics::{ByzantineSet, ChurnPlan};
use population::fault::{
    FaultAction, FaultInjector, FaultPlan, FaultSchedule, FaultSize, NoFaults,
};
use population::metrics::AGENT_FLUSH_EVERY;
use population::runner::rng_from_seed;
use population::scheduler::Zipf;
use population::{
    InteractionGraph, Metrics, MetricsSink, Observer, Reliability, SchedulerPolicy, Simulation,
    TelemetryObserver, TimelineObserver,
};
use ssle::adversary::{random_oss_configuration, ranked_oss_configuration};
use ssle::optimal_silent::{OptimalSilentSsr, OssState};
use ssle::reset::ResetView;

const N: usize = 32;
const SEED: u64 = 2024;

/// FNV-1a over the `Debug` rendering: stable for as long as the state
/// types' derived `Debug` is.
fn digest(value: &impl std::fmt::Debug) -> u64 {
    format!("{value:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

fn protocol() -> OptimalSilentSsr {
    OptimalSilentSsr::new(N)
}

/// A seeded adversarial configuration with a quarter of the agents
/// overwritten to rank 1, so every run starts with a rank collision and a
/// full reset cycle (propagation, dormancy, awakening, recruitment) follows.
fn initial() -> Vec<OssState> {
    let mut states = random_oss_configuration(&protocol(), &mut rng_from_seed(SEED ^ 1));
    for s in &mut states[..N / 4] {
        *s = OssState::settled(1, 0);
    }
    states
}

type Sim<O, F, S, M> = Simulation<OptimalSilentSsr, O, F, S, M>;

fn line<O, F, S, M>(label: &str, sim: &Sim<O, F, S, M>, extra: &str) -> String
where
    O: Observer<OptimalSilentSsr>,
    F: FaultSchedule<OptimalSilentSsr>,
    S: SchedulerPolicy,
    M: MetricsSink,
{
    format!(
        "{label}: states={:016x} interactions={} rng={:016x?}{extra}",
        digest(&sim.states()),
        sim.interactions(),
        sim.rng_state(),
    )
}

/// Runs the four methods on simulations from `build` and renders one line
/// per method; `extra` appends hook-specific observations.
fn exercise<O, F, S, M>(
    hook: &str,
    build: impl Fn() -> Sim<O, F, S, M>,
    extra: impl Fn(&Sim<O, F, S, M>) -> String,
) -> Vec<String>
where
    O: Observer<OptimalSilentSsr>,
    F: FaultSchedule<OptimalSilentSsr>,
    S: SchedulerPolicy,
    M: MetricsSink,
{
    let mut out = Vec::new();
    // `run` then `run_until` then the ranked loop on one simulation, so a
    // method that fails to hand its RNG or clock back shows in the next.
    let mut sim = build();
    sim.run(1_501);
    out.push(line(&format!("{hook}/run"), &sim, &extra(&sim)));
    let outcome = sim.run_until(60_000, |states| !states.iter().any(|s| s.is_resetting()));
    out.push(line(&format!("{hook}/run_until {outcome:?}"), &sim, &extra(&sim)));
    let outcome = sim.run_until_stably_ranked(400_000, 2 * N as u64);
    out.push(line(&format!("{hook}/ranked {outcome:?}"), &sim, &extra(&sim)));

    let mut sim = build();
    let mut timeline = TimelineObserver::new(16);
    let outcome = sim.run_until_stably_ranked_timeline(400_000, 2 * N as u64, &mut timeline);
    let points = timeline.checkpoints();
    out.push(line(
        &format!("{hook}/timeline {outcome:?}"),
        &sim,
        &format!("{} checkpoints={} {:016x}", extra(&sim), points.len(), digest(&points)),
    ));
    out
}

/// Renders one line per edge of the stable-ranking loop on fresh
/// simulations from `build`. The budgets are read off a reference run that
/// must converge: half a window past its convergence and exactly at the
/// window's end. Two more runs stretch the window: to end on a metrics
/// flush boundary, and past the fault plan's period.
fn edges<O, F, S, M>(
    hook: &str,
    build: impl Fn() -> Sim<O, F, S, M>,
    extra: impl Fn(&Sim<O, F, S, M>) -> String,
) -> Vec<String>
where
    O: Observer<OptimalSilentSsr>,
    F: FaultSchedule<OptimalSilentSsr>,
    S: SchedulerPolicy,
    M: MetricsSink,
{
    let window = 2 * N as u64;
    let ranked = |label: &str, budget: u64, window: u64| {
        let mut sim = build();
        let outcome = sim.run_until_stably_ranked(budget, window);
        (line(&format!("{hook}/{label} {outcome:?}"), &sim, &extra(&sim)), outcome)
    };
    let mut out = Vec::new();
    let (text, reference) = ranked("reference", 400_000, window);
    assert!(reference.is_converged(), "{text}");
    let t0 = reference.interactions();
    out.push(ranked("window0", 400_000, 0).0);
    out.push(ranked("inside_window", t0 + window / 2, window).0);
    out.push(ranked("window_end", t0 + window, window).0);
    // A window whose end falls on the next flush boundary.
    let to_flush = (t0 / AGENT_FLUSH_EVERY + 1) * AGENT_FLUSH_EVERY - t0;
    out.push(ranked("flush_end", 400_000, to_flush).0);
    // A window long enough for a fault plan to fire inside it.
    out.push(ranked("long_window", 400_000, 5_000).0);
    out
}

/// Renders one line per chaos run on fresh simulations from `build`: a
/// plan of one-shot faults the run recovers from, then a soak of repeating
/// faults that a second call continues, so a run that fails to hand back
/// its RNG, clock or fault log shows in the next.
fn chaos<O, S, M>(
    hook: &str,
    build: impl Fn() -> Sim<O, NoFaults, S, M>,
    extra: impl Fn(&Sim<O, FaultInjector, S, M>) -> String,
) -> Vec<String>
where
    O: Observer<OptimalSilentSsr>,
    S: SchedulerPolicy,
    M: MetricsSink,
{
    let mut out = Vec::new();
    let oneshot = FaultPlan::new(11)
        .at_interaction(700, FaultAction::CorruptRandom(FaultSize::Exact(2)))
        .after_convergence(200, FaultAction::DuplicateLeader);
    let mut sim = build().with_fault_plan(&oneshot);
    let report = sim.run_chaos(400_000);
    out.push(line(&format!("{hook}/chaos"), &sim, &reported(&extra(&sim), &report)));
    let soak = FaultPlan::new(13)
        .every_interactions(2_500, FaultAction::CorruptRandom(FaultSize::Exact(3)));
    let mut sim = build().with_fault_plan(&soak);
    for (label, budget) in [("soak", 30_000), ("soak_more", 45_001)] {
        let report = sim.run_chaos(budget);
        out.push(line(&format!("{hook}/{label}"), &sim, &reported(&extra(&sim), &report)));
    }
    out
}

/// One line per dynamic-population run: membership churn with its clamps,
/// pinned Byzantine agents, a fault plan mixing every trigger kind (its
/// first fault fires on the clock of a membership event), everything at
/// once under a metrics sink, and churn already due when a run starts late
/// (it fires after the run's first interaction).
fn dynamics() -> Vec<String> {
    let plain = || Simulation::new(protocol(), initial(), SEED);
    let none = ChurnPlan::none;
    let honest = ByzantineSet::none;
    let mut out = Vec::new();

    let churn = ChurnPlan::new(5).join_at(10.0, 3).leave_at(40.0, 3).replace_at(70.0, 2);
    let mut sim = plain();
    let report = sim.run_dynamics(&churn, &honest(), 400_000);
    out.push(line("dynamics/churn", &sim, &reported("", &report)));

    let clamped =
        ChurnPlan::new(6).join_at(10.0, 8).leave_at(40.0, 12).rate(0.25).with_bounds(30, Some(36));
    let mut sim = plain();
    let report = sim.run_dynamics(&clamped, &honest(), 60_000);
    out.push(line("dynamics/clamped", &sim, &reported("", &report)));

    let mut sim = plain();
    let report = sim.run_dynamics(&none(), &ByzantineSet::new(0.1, 9), 60_000);
    out.push(line("dynamics/byzantine", &sim, &reported("", &report)));

    let plan = FaultPlan::new(17)
        .at_interaction(320, FaultAction::CorruptRandom(FaultSize::Exact(2)))
        .at_parallel_time(30.0, FaultAction::Collide(FaultSize::Exact(3)))
        .after_convergence(100, FaultAction::CorruptRandom(FaultSize::Exact(2)))
        .every_interactions(7_000, FaultAction::DuplicateLeader);
    let mut sim = plain().with_fault_plan(&plan);
    let report = sim.run_dynamics(&ChurnPlan::new(8).replace_at(10.0, 1), &honest(), 60_000);
    out.push(line("dynamics/faults", &sim, &reported("", &report)));

    let everything = ChurnPlan::parse("0.5, join:2@10, leave:2@30", 19).unwrap();
    let mut sim = plain().with_fault_plan(&plan).with_metrics(Metrics::new());
    let report = sim.run_dynamics(&everything, &ByzantineSet::new(0.1, 23), 60_000);
    out.push(line("dynamics/everything", &sim, &reported(&metered(&sim), &report)));

    let mut sim = plain();
    sim.run(1_501);
    let late = ChurnPlan::new(3).join_at(10.0, 2).leave_at(40.0, 2);
    let report = sim.run_dynamics(&late, &honest(), 400_000);
    out.push(line("dynamics/late", &sim, &reported("", &report)));
    out
}

/// `extra` followed by a digest of a run's report.
fn reported(extra: &str, report: &dyn std::fmt::Debug) -> String {
    format!("{extra} report={:016x}", digest(&report))
}

fn telemetry<F, S, M>(sim: &Sim<TelemetryObserver, F, S, M>) -> String
where
    F: FaultSchedule<OptimalSilentSsr>,
    S: SchedulerPolicy,
    M: MetricsSink,
{
    let t = sim.observer();
    format!(
        " seen={} effective={} phases={} converged={} exhausted={} batches={}",
        t.interactions.get(),
        t.effective.get(),
        t.phase_transitions.len(),
        t.converged.get(),
        t.exhausted.get(),
        t.batches.get(),
    )
}

fn nothing<T>(_: &T) -> String {
    String::new()
}

fn pinned_lines() -> Vec<String> {
    let plain = || Simulation::new(protocol(), initial(), SEED);
    let mut out = exercise("plain", plain, nothing);
    out.extend(exercise("telemetry", || plain().observe(TelemetryObserver::new()), telemetry));
    let plan = FaultPlan::new(7)
        .every_interactions(2_500, FaultAction::CorruptRandom(FaultSize::Exact(3)));
    out.extend(exercise("faults", || plain().with_fault_plan(&plan), nothing));
    out.extend(exercise(
        "omission",
        || plain().with_reliability(Reliability::with_omission(0.3)),
        nothing,
    ));
    out.extend(exercise(
        "one_way",
        || plain().with_reliability(Reliability::perfect().and_one_way()),
        nothing,
    ));
    out.extend(exercise(
        "omission_one_way",
        || plain().with_reliability(Reliability::with_omission(0.3).and_one_way()),
        nothing,
    ));
    out.extend(exercise("metrics", || plain().with_metrics(Metrics::new()), metered));
    out.extend(exercise(
        "zipf",
        || Simulation::with_policy(protocol(), initial(), Zipf::new(N, 1.2), SEED),
        nothing,
    ));
    out.extend(exercise(
        "ring",
        || Simulation::with_graph(protocol(), initial(), InteractionGraph::Ring, SEED),
        nothing,
    ));
    out.extend(edges("plain", plain, nothing));
    out.extend(edges("faults", || plain().with_fault_plan(&plan), nothing));
    out.extend(edges(
        "omission",
        || plain().with_reliability(Reliability::with_omission(0.3)),
        nothing,
    ));
    out.extend(edges("metrics", || plain().with_metrics(Metrics::new()), metered));
    out.extend(edges(
        "zipf",
        || Simulation::with_policy(protocol(), initial(), Zipf::new(N, 1.2), SEED),
        nothing,
    ));
    // Already ranked: converges at once, then confirms for the window.
    let ranked = || Simulation::new(protocol(), ranked_oss_configuration(&protocol()), SEED);
    for window in [0, 2 * N as u64] {
        let mut sim = ranked().with_metrics(Metrics::new());
        let outcome = sim.run_until_stably_ranked(400_000, window);
        out.push(line(&format!("ranked_start/{window} {outcome:?}"), &sim, &metered(&sim)));
    }
    out.extend(chaos("plain", plain, nothing));
    out.extend(chaos("telemetry", || plain().observe(TelemetryObserver::new()), telemetry));
    out.extend(chaos(
        "omission",
        || plain().with_reliability(Reliability::with_omission(0.3)),
        nothing,
    ));
    out.extend(chaos(
        "one_way",
        || plain().with_reliability(Reliability::perfect().and_one_way()),
        nothing,
    ));
    out.extend(chaos(
        "omission_one_way",
        || plain().with_reliability(Reliability::with_omission(0.3).and_one_way()),
        nothing,
    ));
    out.extend(chaos("metrics", || plain().with_metrics(Metrics::new()), metered));
    out.extend(chaos(
        "zipf",
        || Simulation::with_policy(protocol(), initial(), Zipf::new(N, 1.2), SEED),
        nothing,
    ));
    out.extend(chaos(
        "ring",
        || Simulation::with_graph(protocol(), initial(), InteractionGraph::Ring, SEED),
        nothing,
    ));
    out.extend(dynamics());
    out
}

fn metered<O, F, S>(sim: &Sim<O, F, S, Metrics>) -> String
where
    O: Observer<OptimalSilentSsr>,
    F: FaultSchedule<OptimalSilentSsr>,
    S: SchedulerPolicy,
{
    let m = sim.metrics();
    format!(
        " counted={} draws={} flushes={}",
        m.interactions.get(),
        m.rng_draws.get(),
        m.flushes.get()
    )
}

const PINNED: &str = "\
plain/run: states=99683cd00765278d interactions=1501 rng=[2984f167aad5b39a, f1d81a6a35f87f5f, 72b8ada0631f2820, 18c16bce09ea44c6]\n\
plain/run_until Converged { interactions: 2022 }: states=54c4c354545e7b7b interactions=2022 rng=[40084068beb3e1ff, 174ef729c067c081, 2d89279ead690dac, 8cb3cbab234c9171]\n\
plain/ranked Converged { interactions: 2612 }: states=2751a7eefe15d8e1 interactions=2676 rng=[a655005119d6f971, 903b0163021c7791, 4d5779b226221226, a48f56a68eb13494]\n\
plain/timeline Converged { interactions: 2612 }: states=2751a7eefe15d8e1 interactions=2676 rng=[a655005119d6f971, 903b0163021c7791, 4d5779b226221226, a48f56a68eb13494] checkpoints=12 61b790024f189e47\n\
telemetry/run: states=99683cd00765278d interactions=1501 rng=[2984f167aad5b39a, f1d81a6a35f87f5f, 72b8ada0631f2820, 18c16bce09ea44c6] seen=1501 effective=1497 phases=91 converged=0 exhausted=0 batches=1\n\
telemetry/run_until Converged { interactions: 2022 }: states=54c4c354545e7b7b interactions=2022 rng=[40084068beb3e1ff, 174ef729c067c081, 2d89279ead690dac, 8cb3cbab234c9171] seen=2022 effective=2018 phases=123 converged=1 exhausted=0 batches=1\n\
telemetry/ranked Converged { interactions: 2612 }: states=2751a7eefe15d8e1 interactions=2676 rng=[a655005119d6f971, 903b0163021c7791, 4d5779b226221226, a48f56a68eb13494] seen=2676 effective=2194 phases=123 converged=2 exhausted=0 batches=1\n\
telemetry/timeline Converged { interactions: 2612 }: states=2751a7eefe15d8e1 interactions=2676 rng=[a655005119d6f971, 903b0163021c7791, 4d5779b226221226, a48f56a68eb13494] seen=2676 effective=2194 phases=123 converged=1 exhausted=0 batches=0 checkpoints=12 61b790024f189e47\n\
faults/run: states=99683cd00765278d interactions=1501 rng=[2984f167aad5b39a, f1d81a6a35f87f5f, 72b8ada0631f2820, 18c16bce09ea44c6]\n\
faults/run_until Converged { interactions: 2022 }: states=54c4c354545e7b7b interactions=2022 rng=[40084068beb3e1ff, 174ef729c067c081, 2d89279ead690dac, 8cb3cbab234c9171]\n\
faults/ranked Converged { interactions: 78756 }: states=6e920e0c37b39c6f interactions=78820 rng=[aeaea0a094268797, 739fedd89ce8679f, bfe1e2bf38f4a61d, f8f672ecbb974367]\n\
faults/timeline Converged { interactions: 78756 }: states=6e920e0c37b39c6f interactions=78820 rng=[aeaea0a094268797, 739fedd89ce8679f, bfe1e2bf38f4a61d, f8f672ecbb974367] checkpoints=11 26bbbff3fc22d37d\n\
omission/run: states=853299c217d51649 interactions=1501 rng=[2c4dc019ff8b9eba, 7e01c408a5d44934, 39e3233e001800a5, a68c36cb13ce3c83]\n\
omission/run_until Converged { interactions: 2814 }: states=92b54acdbcc9a89d interactions=2814 rng=[0c798a14543156ff, 982d09fabe50f120, af8b5b7963cd7c74, 7f075adfd1218369]\n\
omission/ranked Converged { interactions: 3714 }: states=9d560df55a6a5fc7 interactions=3778 rng=[25dbcb0f0e7bf14f, a6d451c8a2e5b1b2, 6448c7dc5d17c919, 2536bf464991b0cd]\n\
omission/timeline Converged { interactions: 3714 }: states=9d560df55a6a5fc7 interactions=3778 rng=[25dbcb0f0e7bf14f, a6d451c8a2e5b1b2, 6448c7dc5d17c919, 2536bf464991b0cd] checkpoints=16 caa446a246678f0b\n\
one_way/run: states=19058644cdc37232 interactions=1501 rng=[2984f167aad5b39a, f1d81a6a35f87f5f, 72b8ada0631f2820, 18c16bce09ea44c6]\n\
one_way/run_until Exhausted { interactions: 60000 }: states=fb3c159551773a77 interactions=60000 rng=[d4666f96f36db3c4, 080ae72923bb1fd3, 5c6b345244cb185f, eee16d590d38454e]\n\
one_way/ranked Exhausted { interactions: 400000 }: states=974ad9cbbfbc1c4e interactions=400000 rng=[6d8e0ae6703a60aa, 48d52a44f053cce0, 9ee21545ef6e1c82, 3e3e74274c53cfd6]\n\
one_way/timeline Exhausted { interactions: 400000 }: states=974ad9cbbfbc1c4e interactions=400000 rng=[6d8e0ae6703a60aa, 48d52a44f053cce0, 9ee21545ef6e1c82, 3e3e74274c53cfd6] checkpoints=14 40a0e269c039d9de\n\
omission_one_way/run: states=f877716cf33801f0 interactions=1501 rng=[2c4dc019ff8b9eba, 7e01c408a5d44934, 39e3233e001800a5, a68c36cb13ce3c83]\n\
omission_one_way/run_until Exhausted { interactions: 60000 }: states=783c3962dcbaa567 interactions=60000 rng=[8b2603df5b8c6e91, 2d80b56e98d8190a, 7a3ddc344014c2af, 67cabd997b151a7e]\n\
omission_one_way/ranked Exhausted { interactions: 400000 }: states=90082dc6323ed11d interactions=400000 rng=[344360f2b2c17489, 57baf8e644e93790, 9dff63151ceec6e6, 1e9b672eef0158af]\n\
omission_one_way/timeline Exhausted { interactions: 400000 }: states=90082dc6323ed11d interactions=400000 rng=[344360f2b2c17489, 57baf8e644e93790, 9dff63151ceec6e6, 1e9b672eef0158af] checkpoints=14 ecefd72215f3dbfe\n\
metrics/run: states=99683cd00765278d interactions=1501 rng=[2984f167aad5b39a, f1d81a6a35f87f5f, 72b8ada0631f2820, 18c16bce09ea44c6] counted=1501 draws=1501 flushes=1\n\
metrics/run_until Converged { interactions: 2022 }: states=54c4c354545e7b7b interactions=2022 rng=[40084068beb3e1ff, 174ef729c067c081, 2d89279ead690dac, 8cb3cbab234c9171] counted=2022 draws=2022 flushes=1\n\
metrics/ranked Converged { interactions: 2612 }: states=2751a7eefe15d8e1 interactions=2676 rng=[a655005119d6f971, 903b0163021c7791, 4d5779b226221226, a48f56a68eb13494] counted=2676 draws=2676 flushes=2\n\
metrics/timeline Converged { interactions: 2612 }: states=2751a7eefe15d8e1 interactions=2676 rng=[a655005119d6f971, 903b0163021c7791, 4d5779b226221226, a48f56a68eb13494] counted=2676 draws=2676 flushes=2 checkpoints=12 61b790024f189e47\n\
zipf/run: states=ee3678fda0612505 interactions=1501 rng=[d34520b1354cb550, fef39e174716b161, 1ebe3b841cb8a67e, 128825d92719d51d]\n\
zipf/run_until Converged { interactions: 2776 }: states=eec605100a9f3dfa interactions=2776 rng=[c2ec9c55f0096803, 3290545644b3ca2f, 28c61adfb18feaa8, 561972673937646a]\n\
zipf/ranked Converged { interactions: 96078 }: states=cc863e02f8d3cb3b interactions=96142 rng=[2179691f78754aa9, 419dbe934c7f1ce0, 7cc238eb32852272, 6e7daa785fd2fa77]\n\
zipf/timeline Converged { interactions: 96078 }: states=cc863e02f8d3cb3b interactions=96142 rng=[2179691f78754aa9, 419dbe934c7f1ce0, 7cc238eb32852272, 6e7daa785fd2fa77] checkpoints=13 27b7993eba5c4378\n\
ring/run: states=ba5e15e3e72b150f interactions=1501 rng=[2c4dc019ff8b9eba, 7e01c408a5d44934, 39e3233e001800a5, a68c36cb13ce3c83]\n\
ring/run_until Converged { interactions: 3552 }: states=0343cf92fd965481 interactions=3552 rng=[89902c5efb10ba8f, fb83941d9ce839de, b128584418eff20a, cea87be3a37fb518]\n\
ring/ranked Exhausted { interactions: 400000 }: states=6a7fb127403628ee interactions=400000 rng=[344360f2b2c17489, 57baf8e644e93790, 9dff63151ceec6e6, 1e9b672eef0158af]\n\
ring/timeline Exhausted { interactions: 400000 }: states=6a7fb127403628ee interactions=400000 rng=[344360f2b2c17489, 57baf8e644e93790, 9dff63151ceec6e6, 1e9b672eef0158af] checkpoints=14 f8517e29276a5f05\n\
plain/window0 Converged { interactions: 2612 }: states=2751a7eefe15d8e1 interactions=2612 rng=[02f826afaab6f7a9, f04f4d21927bced5, 40cefb8b0dc88821, cd11b49d68b772e7]\n\
plain/inside_window Exhausted { interactions: 2644 }: states=2751a7eefe15d8e1 interactions=2644 rng=[8dbe834a082514a8, 097b95551965e03b, 6b29ce79a5188a04, eb3aabfb3b133d23]\n\
plain/window_end Converged { interactions: 2612 }: states=2751a7eefe15d8e1 interactions=2676 rng=[a655005119d6f971, 903b0163021c7791, 4d5779b226221226, a48f56a68eb13494]\n\
plain/flush_end Converged { interactions: 2612 }: states=2751a7eefe15d8e1 interactions=3072 rng=[885f8855484dadb7, ed0680e7d5b7756b, 4cc2470a7c91a5c1, ec65378376ca0092]\n\
plain/long_window Converged { interactions: 2612 }: states=2751a7eefe15d8e1 interactions=7612 rng=[dc8705de6591de57, cd3d74de4a5cc5ab, 1292b46030f12250, 7d759b925ad8fd2b]\n\
faults/window0 Converged { interactions: 78756 }: states=6e920e0c37b39c6f interactions=78756 rng=[74a4e4babb9201fa, 3503e4f1bb26146c, afa4a37fa1656e13, 79c83a5a380f7204]\n\
faults/inside_window Exhausted { interactions: 78788 }: states=6e920e0c37b39c6f interactions=78788 rng=[717efef96b3b8738, bcf2185942a97686, caae0dda29cfb2d5, 1f2d5a4194574d0a]\n\
faults/window_end Converged { interactions: 78756 }: states=6e920e0c37b39c6f interactions=78820 rng=[aeaea0a094268797, 739fedd89ce8679f, bfe1e2bf38f4a61d, f8f672ecbb974367]\n\
faults/flush_end Converged { interactions: 78756 }: states=6e920e0c37b39c6f interactions=78848 rng=[6ac309ccad9c1b0a, 20bc0fa54a0831c8, d850bda8830eeed7, 253c120d6d207c64]\n\
faults/long_window Exhausted { interactions: 400000 }: states=2240cade4c3f9927 interactions=400000 rng=[6d8e0ae6703a60aa, 48d52a44f053cce0, 9ee21545ef6e1c82, 3e3e74274c53cfd6]\n\
omission/window0 Converged { interactions: 3714 }: states=9d560df55a6a5fc7 interactions=3714 rng=[76fea8a65cafea19, 6563d48fb255772a, 59105642cb426eb4, 1764ea0400d8d133]\n\
omission/inside_window Exhausted { interactions: 3746 }: states=9d560df55a6a5fc7 interactions=3746 rng=[b424561cb36b4eb2, b3af89a6de7a50fc, c946c19f560d3d92, 02a8e176a1acfeed]\n\
omission/window_end Converged { interactions: 3714 }: states=9d560df55a6a5fc7 interactions=3778 rng=[25dbcb0f0e7bf14f, a6d451c8a2e5b1b2, 6448c7dc5d17c919, 2536bf464991b0cd]\n\
omission/flush_end Converged { interactions: 3714 }: states=9d560df55a6a5fc7 interactions=4096 rng=[f44be9cef6348132, 7b3d1860335caaad, 9b38886da980c7ee, d5f0a6ed9d05c173]\n\
omission/long_window Converged { interactions: 3714 }: states=9d560df55a6a5fc7 interactions=8714 rng=[2459eac8546c9b64, c5656c681cf13f50, 122376b13f34b90d, 34cac130a3022e61]\n\
metrics/window0 Converged { interactions: 2612 }: states=2751a7eefe15d8e1 interactions=2612 rng=[02f826afaab6f7a9, f04f4d21927bced5, 40cefb8b0dc88821, cd11b49d68b772e7] counted=2612 draws=2612 flushes=2\n\
metrics/inside_window Exhausted { interactions: 2644 }: states=2751a7eefe15d8e1 interactions=2644 rng=[8dbe834a082514a8, 097b95551965e03b, 6b29ce79a5188a04, eb3aabfb3b133d23] counted=2644 draws=2644 flushes=2\n\
metrics/window_end Converged { interactions: 2612 }: states=2751a7eefe15d8e1 interactions=2676 rng=[a655005119d6f971, 903b0163021c7791, 4d5779b226221226, a48f56a68eb13494] counted=2676 draws=2676 flushes=2\n\
metrics/flush_end Converged { interactions: 2612 }: states=2751a7eefe15d8e1 interactions=3072 rng=[885f8855484dadb7, ed0680e7d5b7756b, 4cc2470a7c91a5c1, ec65378376ca0092] counted=3072 draws=3072 flushes=3\n\
metrics/long_window Converged { interactions: 2612 }: states=2751a7eefe15d8e1 interactions=7612 rng=[dc8705de6591de57, cd3d74de4a5cc5ab, 1292b46030f12250, 7d759b925ad8fd2b] counted=7612 draws=7612 flushes=7\n\
zipf/window0 Converged { interactions: 96078 }: states=cc863e02f8d3cb3b interactions=96078 rng=[107a9df43479baf2, 711fce0b5e268427, f17a59f65cc25500, cbd81b6bb2664073]\n\
zipf/inside_window Exhausted { interactions: 96110 }: states=cc863e02f8d3cb3b interactions=96110 rng=[c2fcda9a721ce897, 76aded0a4220c7c0, c1979b8998af60e2, 2cffbc3eeba3cf67]\n\
zipf/window_end Converged { interactions: 96078 }: states=cc863e02f8d3cb3b interactions=96142 rng=[2179691f78754aa9, 419dbe934c7f1ce0, 7cc238eb32852272, 6e7daa785fd2fa77]\n\
zipf/flush_end Converged { interactions: 96078 }: states=cc863e02f8d3cb3b interactions=96256 rng=[ebb5f90b909fccae, 9ff422d93f16f107, 1103fc3dea697ad6, 609b3d4e9a9069a7]\n\
zipf/long_window Converged { interactions: 96078 }: states=cc863e02f8d3cb3b interactions=101078 rng=[0c414d82d289cd6e, f1df202a4868286e, bf4e9b64f9f94111, c00a0b3af77eab44]\n\
ranked_start/0 Converged { interactions: 0 }: states=f2cb7340d35e6fb3 interactions=0 rng=[9073042e1efa35a0, 4e9155be1a6f175e, 2639abc92f6efa69, 9ef9d531c304abb1] counted=0 draws=0 flushes=0\n\
ranked_start/64 Converged { interactions: 0 }: states=f2cb7340d35e6fb3 interactions=64 rng=[1bd7637e8c9fb1f0, 25411a60afbdb262, 2006c4890c07fa71, 08ddb1ad36b46939] counted=64 draws=64 flushes=0\n\
plain/chaos: states=742bac01c02750f3 interactions=9073 rng=[b6307fea40153c39, df3ba75e8e6ec680, b5b2375082cbe1a1, 29c39a6ae89583e0] report=6090b95041aadda4\n\
plain/soak: states=776f21774f3fa6a0 interactions=30000 rng=[06516472eb3d55c6, bcdb95621e1f226c, 3718a6c2eb7b5188, 7d07249f929783a7] report=ddc8c37d105ecd90\n\
plain/soak_more: states=872c0d9160cba18e interactions=45001 rng=[4962546359295eaa, 61b420689a57386b, 7eb7636310204cec, 7c2b6da02db87eb1] report=9bbb9974ff3d3e4c\n\
telemetry/chaos: states=742bac01c02750f3 interactions=9073 rng=[b6307fea40153c39, df3ba75e8e6ec680, b5b2375082cbe1a1, 29c39a6ae89583e0] seen=9073 effective=5821 phases=384 converged=1 exhausted=0 batches=0 report=6090b95041aadda4\n\
telemetry/soak: states=776f21774f3fa6a0 interactions=30000 rng=[06516472eb3d55c6, bcdb95621e1f226c, 3718a6c2eb7b5188, 7d07249f929783a7] seen=30000 effective=26529 phases=1567 converged=0 exhausted=1 batches=0 report=ddc8c37d105ecd90\n\
telemetry/soak_more: states=872c0d9160cba18e interactions=45001 rng=[4962546359295eaa, 61b420689a57386b, 7eb7636310204cec, 7c2b6da02db87eb1] seen=45001 effective=39225 phases=2596 converged=0 exhausted=2 batches=0 report=9bbb9974ff3d3e4c\n\
omission/chaos: states=63adb4f05ade66dd interactions=13688 rng=[68505126e721a601, 1d7fae1c000fa103, 4fb11bfc68ac4d1d, da5b01f765f2ceb3] report=85ae61abd0ba6937\n\
omission/soak: states=fb595ab7a2ed30c5 interactions=30000 rng=[d4666f96f36db3c4, 080ae72923bb1fd3, 5c6b345244cb185f, eee16d590d38454e] report=cf160b9deb422310\n\
omission/soak_more: states=7dd9994359eef478 interactions=45001 rng=[b58bc043ad931208, 39842872d02c14eb, bcaff2a6ff81a4fc, 03c02487229842ba] report=6463c5c7a7ce8f4d\n\
one_way/chaos: states=974ad9cbbfbc1c4e interactions=400000 rng=[6d8e0ae6703a60aa, 48d52a44f053cce0, 9ee21545ef6e1c82, 3e3e74274c53cfd6] report=11080037a9108c0f\n\
one_way/soak: states=56bfdea8aaf6ddcd interactions=30000 rng=[06516472eb3d55c6, bcdb95621e1f226c, 3718a6c2eb7b5188, 7d07249f929783a7] report=d72d3ed7d94f3898\n\
one_way/soak_more: states=2217e9cf67d85226 interactions=45001 rng=[4962546359295eaa, 61b420689a57386b, 7eb7636310204cec, 7c2b6da02db87eb1] report=17a8894400cd0627\n\
omission_one_way/chaos: states=90082dc6323ed11d interactions=400000 rng=[344360f2b2c17489, 57baf8e644e93790, 9dff63151ceec6e6, 1e9b672eef0158af] report=a367f95eae5c1229\n\
omission_one_way/soak: states=ded88c7f05ac6c0f interactions=30000 rng=[d4666f96f36db3c4, 080ae72923bb1fd3, 5c6b345244cb185f, eee16d590d38454e] report=5766437fd2ef0893\n\
omission_one_way/soak_more: states=9e41d9d03576a551 interactions=45001 rng=[b58bc043ad931208, 39842872d02c14eb, bcaff2a6ff81a4fc, 03c02487229842ba] report=c55cc1784f519cc5\n\
metrics/chaos: states=742bac01c02750f3 interactions=9073 rng=[b6307fea40153c39, df3ba75e8e6ec680, b5b2375082cbe1a1, 29c39a6ae89583e0] counted=9073 draws=9073 flushes=8 report=6090b95041aadda4\n\
metrics/soak: states=776f21774f3fa6a0 interactions=30000 rng=[06516472eb3d55c6, bcdb95621e1f226c, 3718a6c2eb7b5188, 7d07249f929783a7] counted=30000 draws=30000 flushes=29 report=ddc8c37d105ecd90\n\
metrics/soak_more: states=872c0d9160cba18e interactions=45001 rng=[4962546359295eaa, 61b420689a57386b, 7eb7636310204cec, 7c2b6da02db87eb1] counted=45001 draws=45001 flushes=43 report=9bbb9974ff3d3e4c\n\
zipf/chaos: states=fb5c18fdfb920bc4 interactions=400000 rng=[ddd65c6c3203eb4e, c3c22f0299f1afb6, bac3ea46d15ea9bc, d2926eb0360b322f] report=4c87eee58ce139c8\n\
zipf/soak: states=73a52475e5fc4c66 interactions=30000 rng=[b192dc82d6c68bf9, efe481af0fc3e792, 839f54c90ecf24d7, 46e08cbde461b617] report=69fa92a8df05a13f\n\
zipf/soak_more: states=067b73fdb2493790 interactions=45001 rng=[12e361d740d029e0, 7858a9b73e208e1d, cbc595420f442335, b123d9e330051255] report=a70cb0096f0c6e71\n\
ring/chaos: states=85565e8fa61fc069 interactions=400000 rng=[344360f2b2c17489, 57baf8e644e93790, 9dff63151ceec6e6, 1e9b672eef0158af] report=07e94d8e9dbf0caa\n\
ring/soak: states=8765902bdb10948a interactions=30000 rng=[d4666f96f36db3c4, 080ae72923bb1fd3, 5c6b345244cb185f, eee16d590d38454e] report=94bac8d7a6edec99\n\
ring/soak_more: states=9851bd376042a2aa interactions=45001 rng=[b58bc043ad931208, 39842872d02c14eb, bcaff2a6ff81a4fc, 03c02487229842ba] report=5542d5cd8a424158\n\
dynamics/churn: states=1fd5f1c5c01aac03 interactions=7092 rng=[273495ef5b7539a6, e800acdd76081796, 486a82194562c142, ecb8a841404ff906] report=82c403ca15346610\n\
dynamics/clamped: states=2c16356cc75859a3 interactions=60000 rng=[d4666f96f36db3c4, 080ae72923bb1fd3, 5c6b345244cb185f, eee16d590d38454e] report=d0e64a481c82eda7\n\
dynamics/byzantine: states=298e2ff27824992f interactions=60000 rng=[d4666f96f36db3c4, 080ae72923bb1fd3, 5c6b345244cb185f, eee16d590d38454e] report=a0c12b49fdb29ce0\n\
dynamics/faults: states=2d8723e82272389a interactions=60000 rng=[d4666f96f36db3c4, 080ae72923bb1fd3, 5c6b345244cb185f, eee16d590d38454e] report=3e94ca96fe703c87\n\
dynamics/everything: states=e448ce1a8c180051 interactions=60000 rng=[d4666f96f36db3c4, 080ae72923bb1fd3, 5c6b345244cb185f, eee16d590d38454e] counted=60000 draws=60000 flushes=58 report=633580f54083978f\n\
dynamics/late: states=66a012f37e1e231d interactions=5851 rng=[0934e8d91b97f1f4, fc521699e82ce406, 7671ae0935860202, 3915f2c57264ca33] report=4e4621e91337b1bf";

#[test]
fn executions_match_the_pinned_engine() {
    let actual = pinned_lines().join("\n");
    assert_eq!(actual, PINNED, "pinned executions changed; actual:\n{actual}");
}
