//! The [`MemberSink`] contract of `Simulator::run_into`, on all five
//! engines: every member of a finished batch reaches the sink exactly once
//! whatever the worker count; a success comes with its dynamics text — the
//! text `serialize_dynamics` produces — and a failure with no text and the
//! outcome an `.err` report is written from; the bytes P5 is priced on are
//! the lengths of those same texts, so `run_into` reports the clocks `run`
//! reports to the bit; and a run that fails delivers nobody.

use paraspace_core::{
    AutoEngine, CancelToken, CoarseEngine, CpuEngine, CpuSolverKind, FaultPlan, FaultSpec,
    FineCoarseEngine, FineEngine, SimError, SimOutcome, SimulationJob, Simulator,
};
use paraspace_rbm::{perturbed_batch, Parameterization, Reaction, ReactionBasedModel};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Mutex;

const BATCH: usize = 21;
const FAILING: [usize; 2] = [3, 17];
const STIFF: usize = 9;

fn model() -> ReactionBasedModel {
    let mut m = ReactionBasedModel::new();
    let a = m.add_species("A", 1.0);
    let b = m.add_species("B", 0.2);
    m.add_reaction(Reaction::mass_action(&[(a, 1)], &[(b, 1)], 0.9)).unwrap();
    m.add_reaction(Reaction::mass_action(&[(b, 1)], &[(a, 1)], 0.4)).unwrap();
    m
}

/// Distinct gentle members, one stiff one (fine-coarse sends it through
/// P4), and two whose right-hand side turns to NaN mid-run.
fn job(m: &ReactionBasedModel) -> SimulationJob<'_> {
    let mut members = perturbed_batch(m, BATCH, &mut StdRng::seed_from_u64(5));
    members[STIFF] = Parameterization::new().with_rate_constants(vec![1e5, 2e5]);
    let mut plan = FaultPlan::new();
    for i in FAILING {
        plan = plan.with_fault(i, FaultSpec::nan_at_time(0.2));
    }
    SimulationJob::builder(m)
        .time_points(vec![0.5, 1.0, 2.0])
        .parameterizations(members)
        .fault_plan(plan)
        .build()
        .unwrap()
}

fn engines(threads: usize, cancel: &CancelToken) -> Vec<(&'static str, Box<dyn Simulator>)> {
    let cpu = CpuEngine::new(CpuSolverKind::Lsoda);
    vec![
        ("cpu", Box::new(cpu.with_threads(threads).with_cancel(cancel.clone())) as _),
        ("coarse", Box::new(CoarseEngine::new().with_threads(threads).with_cancel(cancel.clone()))),
        ("fine", Box::new(FineEngine::new().with_threads(threads).with_cancel(cancel.clone()))),
        (
            "fine-coarse",
            Box::new(FineCoarseEngine::new().with_threads(threads).with_cancel(cancel.clone())),
        ),
        ("auto", Box::new(AutoEngine::new().with_threads(threads).with_cancel(cancel.clone()))),
    ]
}

/// What one sink call carried: the text (if any) and what an `.err` report
/// reads of the outcome.
type Delivery = (Option<String>, Option<String>, &'static str, usize);

fn record(
    deliveries: &Mutex<Vec<Vec<Delivery>>>,
) -> impl Fn(usize, &SimOutcome, Option<&str>) + '_ {
    move |i, o, text| {
        let error = o.solution.as_ref().err().map(ToString::to_string);
        let delivery = (text.map(str::to_string), error, o.solver, o.log.attempts);
        deliveries.lock().unwrap()[i].push(delivery);
    }
}

#[test]
fn every_member_reaches_the_sink_once_with_the_text_the_clocks_are_priced_on() {
    let m = model();
    let job = job(&m);
    for threads in [1, 2, 5] {
        for (name, engine) in engines(threads, &CancelToken::new()) {
            let label = format!("{name}, {threads} threads");
            let deliveries = Mutex::new(vec![Vec::new(); BATCH]);
            let delivered = engine.run_into(&job, &record(&deliveries)).unwrap();
            let plain = engine.run(&job).unwrap();

            let mut bytes = 0u64;
            for (i, calls) in deliveries.into_inner().unwrap().into_iter().enumerate() {
                assert_eq!(calls.len(), 1, "{label}: member {i} delivered {} times", calls.len());
                let (text, error, solver, attempts) = &calls[0];
                let outcome = &plain.outcomes[i];
                assert_eq!(outcome.solution.is_err(), FAILING.contains(&i), "{label}: member {i}");
                match &outcome.solution {
                    Ok(solution) => {
                        let text = text.as_ref().expect("a success is delivered with its text");
                        assert_eq!(text, &job.serialize_dynamics(solution), "{label}: member {i}");
                        assert_eq!(error, &None);
                        bytes += text.len() as u64;
                    }
                    Err(e) => {
                        assert_eq!(text, &None, "{label}: failed member {i} has no text");
                        assert_eq!(error, &Some(e.to_string()), "{label}: member {i}");
                    }
                }
                assert_eq!((*solver, *attempts), (outcome.solver, outcome.log.attempts));
            }

            // The sink changes nothing the caller can see, and what it was
            // handed is what P5 was priced on.
            assert_eq!(delivered.health, plain.health, "{label}");
            for (a, b) in [
                (delivered.timing.simulated_total_ns, plain.timing.simulated_total_ns),
                (delivered.timing.simulated_integration_ns, plain.timing.simulated_integration_ns),
                (delivered.timing.simulated_io_ns, plain.timing.simulated_io_ns),
            ] {
                assert_eq!(a.to_bits(), b.to_bits(), "{label}");
            }
            if name == "fine-coarse" {
                assert!(plain.outcomes[STIFF].stiff, "{label}: P4 had a member to deliver");
            }
            if name == "cpu" {
                // The CPU baseline's I/O clock is the output write alone,
                // at 0.5 bytes/ns.
                assert_eq!(plain.timing.simulated_io_ns.to_bits(), (bytes as f64 / 0.5).to_bits());
            }
        }
    }
}

#[test]
fn a_cancelled_run_delivers_nobody() {
    let m = model();
    let job = job(&m);
    let cancel = CancelToken::new();
    cancel.cancel();
    for threads in [1, 2] {
        for (name, engine) in engines(threads, &cancel) {
            let calls = Mutex::new(0usize);
            let count = |_: usize, _: &SimOutcome, _: Option<&str>| *calls.lock().unwrap() += 1;
            match engine.run_into(&job, &count) {
                Err(SimError::Cancelled) => {}
                other => panic!("{name}: expected Cancelled, got {:?}", other.map(|_| ())),
            }
            assert_eq!(calls.into_inner().unwrap(), 0, "{name}, {threads} threads");
        }
    }
}

#[test]
fn a_simulator_that_only_implements_run_still_honours_the_contract() {
    /// A wrapper of the kind the analysis tests and the benchmark's trace
    /// write: `run` forwarded, `run_into` left to the trait.
    struct Forward(CpuEngine);
    impl Simulator for Forward {
        fn name(&self) -> &'static str {
            self.0.name()
        }
        fn run(&self, job: &SimulationJob) -> Result<paraspace_core::BatchResult, SimError> {
            self.0.run(job)
        }
    }
    let m = model();
    let job = job(&m);
    let engine = Forward(CpuEngine::new(CpuSolverKind::Vode).with_threads(2));
    let deliveries = Mutex::new(vec![Vec::new(); BATCH]);
    let result = engine.run_into(&job, &record(&deliveries)).unwrap();
    for (i, calls) in deliveries.into_inner().unwrap().into_iter().enumerate() {
        assert_eq!(calls.len(), 1, "member {i}");
        let text = result.outcomes[i].solution.as_ref().ok().map(|s| job.serialize_dynamics(s));
        assert_eq!(calls[0].0, text, "member {i}");
    }
}
