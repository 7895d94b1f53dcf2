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

use population::fault::{FaultAction, FaultPlan, FaultSchedule, FaultSize};
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

fn nothing<T>(_: &T) -> String {
    String::new()
}

fn pinned_lines() -> Vec<String> {
    let plain = || Simulation::new(protocol(), initial(), SEED);
    let mut out = exercise("plain", plain, nothing);
    out.extend(exercise(
        "telemetry",
        || plain().observe(TelemetryObserver::new()),
        |sim| {
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
        },
    ));
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
ranked_start/64 Converged { interactions: 0 }: states=f2cb7340d35e6fb3 interactions=64 rng=[1bd7637e8c9fb1f0, 25411a60afbdb262, 2006c4890c07fa71, 08ddb1ad36b46939] counted=64 draws=64 flushes=0";

#[test]
fn executions_match_the_pinned_engine() {
    let actual = pinned_lines().join("\n");
    assert_eq!(actual, PINNED, "pinned executions changed; actual:\n{actual}");
}
