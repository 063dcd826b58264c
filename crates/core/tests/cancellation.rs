//! Cooperative cancellation at the engine level: a tripped token makes
//! `Simulator::run` return [`SimError::Cancelled`] with every partial
//! result discarded, and re-running with a fresh token reproduces the
//! uninterrupted batch bitwise.

use paraspace_core::{
    AutoEngine, CancelToken, CoarseEngine, CpuEngine, CpuSolverKind, FineCoarseEngine, FineEngine,
    SimError, SimulationJob, Simulator,
};
use paraspace_rbm::{perturbed_batch, Parameterization, Reaction, ReactionBasedModel};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn model() -> ReactionBasedModel {
    let mut m = ReactionBasedModel::new();
    let a = m.add_species("A", 1.0);
    let b = m.add_species("B", 0.2);
    m.add_reaction(Reaction::mass_action(&[(a, 1)], &[(b, 1)], 0.9)).unwrap();
    m.add_reaction(Reaction::mass_action(&[(b, 1)], &[(a, 1)], 0.4)).unwrap();
    m
}

fn job(m: &ReactionBasedModel, batch: usize) -> SimulationJob<'_> {
    let mut rng = StdRng::seed_from_u64(11);
    SimulationJob::builder(m)
        .time_points(vec![0.5, 1.0, 2.0])
        .parameterizations(perturbed_batch(m, batch, &mut rng))
        .build()
        .unwrap()
}

fn engines(cancel: &CancelToken) -> Vec<(&'static str, Box<dyn Simulator>)> {
    vec![
        (
            "cpu",
            Box::new(CpuEngine::new(CpuSolverKind::Lsoda).with_cancel(cancel.clone()))
                as Box<dyn Simulator>,
        ),
        ("coarse", Box::new(CoarseEngine::new().with_cancel(cancel.clone()))),
        ("fine", Box::new(FineEngine::new().with_cancel(cancel.clone()))),
        ("fine-coarse", Box::new(FineCoarseEngine::new().with_cancel(cancel.clone()))),
        ("auto", Box::new(AutoEngine::new().with_cancel(cancel.clone()))),
    ]
}

#[test]
fn tripped_token_cancels_every_engine() {
    let cancel = CancelToken::new();
    cancel.cancel();
    let m = model();
    let job = job(&m, 8);
    for (name, engine) in engines(&cancel) {
        match engine.run(&job) {
            Err(SimError::Cancelled) => {}
            other => panic!("{name}: expected Cancelled, got {other:?}"),
        }
    }
}

#[test]
fn token_tripped_for_the_stiff_phase_cancels_fine_coarse() {
    // Every member is stiff at P2, so P3 has nothing to run and the first
    // executor items the token can stop are P4's lane groups. P4 used to
    // ignore the token and integrate the whole crowd regardless.
    let m = model();
    let mut b = SimulationJob::builder(&m).time_points(vec![0.5, 1.0]);
    for i in 0..12 {
        b = b.parameterization(
            Parameterization::new()
                .with_rate_constants(vec![1e5 + 5e3 * i as f64, 2e5 + 1e4 * i as f64]),
        );
    }
    let job = b.build().unwrap();
    let clean = FineCoarseEngine::new().run(&job).unwrap();
    assert!(clean.outcomes.iter().all(|o| o.stiff && o.solver == "radau5-lanes"));

    let cancel = CancelToken::new();
    cancel.cancel();
    for threads in [1, 2] {
        let engine = FineCoarseEngine::new().with_threads(threads).with_cancel(cancel.clone());
        match engine.run(&job) {
            Err(SimError::Cancelled) => {}
            other => panic!("{threads} threads: expected Cancelled, got {other:?}"),
        }
    }
}

#[test]
fn token_tripping_during_the_explicit_phase_cancels_fine_coarse() {
    // Nobody is stiff, so the run is P3: lockstep DOPRI5 groups pulling
    // members off one shared queue, polling the token at every refill. A
    // helper thread trips the token a moment into a batch that takes far
    // longer: wherever exactly that lands, the groups stop refilling, drain
    // and the run reports Cancelled with nothing kept. (`lanes.rs` trips the
    // token at a chosen RHS sweep and checks that no lane is bound
    // afterwards.)
    let m = model();
    let job = job(&m, 16_000);
    let baseline = FineCoarseEngine::new().run(&job).unwrap();
    assert!(baseline.outcomes.iter().all(|o| !o.stiff && o.solver == "dopri5"));

    for threads in [1, 2] {
        let cancel = CancelToken::new();
        let tripper = {
            let cancel = cancel.clone();
            std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(1));
                cancel.cancel();
            })
        };
        let engine = FineCoarseEngine::new().with_threads(threads).with_cancel(cancel);
        match engine.run(&job) {
            Err(SimError::Cancelled) => {}
            other => panic!("{threads} threads: expected Cancelled, got {:?}", other.map(|_| ())),
        }
        tripper.join().unwrap();

        // A fresh token reproduces the uninterrupted run bitwise.
        let rerun = FineCoarseEngine::new()
            .with_threads(threads)
            .with_cancel(CancelToken::new())
            .run(&job)
            .unwrap();
        assert_eq!(baseline.timing.simulated_total_ns, rerun.timing.simulated_total_ns);
        assert_eq!(baseline.health, rerun.health);
        for (a, b) in baseline.outcomes.iter().zip(&rerun.outcomes) {
            assert_eq!(a.solution.as_ref().unwrap(), b.solution.as_ref().unwrap());
        }
    }
}

#[test]
fn fresh_token_is_inert_and_rerun_is_bitwise_identical() {
    let m = model();
    let job = job(&m, 6);
    let baseline = FineEngine::new().run(&job).unwrap();

    // A token installed but never tripped changes nothing.
    let token = CancelToken::new();
    let with_token = FineEngine::new().with_cancel(token.clone()).run(&job).unwrap();
    assert_eq!(baseline.success_count(), with_token.success_count());
    for (a, b) in baseline.outcomes.iter().zip(&with_token.outcomes) {
        let (sa, sb) = (a.solution.as_ref().unwrap(), b.solution.as_ref().unwrap());
        for t in 0..job.time_points().len() {
            for (x, y) in sa.state_at(t).iter().zip(sb.state_at(t)) {
                assert_eq!(x.to_bits(), y.to_bits(), "cancel-ready run must be bitwise identical");
            }
        }
    }

    // Cancelling, then re-running with a fresh token, also reproduces the
    // baseline bitwise: nothing from the cancelled attempt leaks through.
    token.cancel();
    assert!(matches!(FineEngine::new().with_cancel(token).run(&job), Err(SimError::Cancelled)));
    let rerun = FineEngine::new().with_cancel(CancelToken::new()).run(&job).unwrap();
    for (a, b) in baseline.outcomes.iter().zip(&rerun.outcomes) {
        let (sa, sb) = (a.solution.as_ref().unwrap(), b.solution.as_ref().unwrap());
        for t in 0..job.time_points().len() {
            for (x, y) in sa.state_at(t).iter().zip(sb.state_at(t)) {
                assert_eq!(x.to_bits(), y.to_bits(), "post-cancel rerun must be bitwise identical");
            }
        }
    }
}

#[test]
fn cancellation_error_converts_and_displays() {
    let e = SimError::from(paraspace_core::Cancelled);
    assert!(matches!(e, SimError::Cancelled));
    assert_eq!(e.to_string(), "batch cancelled before completion");
}

#[test]
fn outcome_log_records_attempts_for_clean_members() {
    // The per-member RecoveryLog now rides on every outcome: a clean solve
    // reports exactly one attempt and no recovery activity.
    let m = model();
    let job = job(&m, 4);
    let r = CpuEngine::new(CpuSolverKind::Lsoda).run(&job).unwrap();
    for o in &r.outcomes {
        assert!(o.solution.is_ok());
        assert_eq!(o.log.attempts, 1);
        assert!(!o.log.recovered && !o.log.rerouted && !o.log.panicked);
    }
}
