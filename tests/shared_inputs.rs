//! The experiment matrix's shared inputs, end to end: in one matrix
//! run every declared input is built exactly once, whatever the pool
//! width; each is released as soon as its last consumer is done; and
//! `run_one` still builds its own inputs on every call.
//!
//! Builds are counted from the `pipeline.*` spans on the global
//! registry, so this file holds a single test: nothing else in the
//! process records spans while it runs.

use spindle_bench::pipeline::{self, EnvRun, Input, Inputs};
use spindle_bench::{matrix, ExpConfig};
use spindle_engine::Pool;
use spindle_obs::ObsConfig;
use spindle_synth::presets::Environment;

/// A reduced-scale config, as in the determinism tests.
fn tiny() -> ExpConfig {
    let mut cfg = ExpConfig::quick();
    cfg.ms_span_secs = 300.0;
    cfg.hour_weeks = 2;
    cfg.family_drives = 12;
    cfg
}

/// Totals of the pipeline spans and of completed disk requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Work {
    generate: u64,
    simulate: u64,
    family: u64,
    requests: u64,
}

fn work() -> Work {
    let snap = spindle_obs::global().snapshot();
    let spans = |name: &str| snap.span(name).map_or(0, |s| s.count);
    Work {
        generate: spans("pipeline.generate"),
        simulate: spans("pipeline.simulate"),
        family: spans("pipeline.family"),
        requests: snap.counter("disk.requests_completed").unwrap_or(0),
    }
}

/// The work done by `f`.
fn measured(f: impl FnOnce()) -> Work {
    let before = work();
    f();
    let after = work();
    Work {
        generate: after.generate - before.generate,
        simulate: after.simulate - before.simulate,
        family: after.family - before.family,
        requests: after.requests - before.requests,
    }
}

/// Runs `ids` through `pool`, checking at each completion, in request
/// order, that every input whose consumers have all completed is no
/// longer in memory.
fn run_checking_release(ids: &[String], cfg: &ExpConfig, pool: &Pool) -> Inputs {
    let inputs = matrix::inputs_for(ids, cfg);
    let mut remaining: Vec<usize> = Input::all()
        .iter()
        .map(|input| {
            ids.iter()
                .filter(|id| matrix::needs(id).inputs.contains(input))
                .count()
        })
        .collect();
    let outcome = matrix::run_matrix_with(ids, &inputs, pool, |res| {
        for input in matrix::needs(&res.id).inputs {
            remaining[input.slot()] -= 1;
        }
        for input in Input::all() {
            if remaining[input.slot()] == 0 {
                assert!(
                    !inputs.is_live(input),
                    "--jobs {}: {input:?} still live after its last consumer, {}",
                    pool.jobs(),
                    res.id
                );
            }
        }
    });
    assert!(outcome.failures.is_empty());
    assert_eq!(outcome.results.len(), ids.len());
    for res in &outcome.results {
        assert!(res.output.is_ok(), "{} failed", res.id);
    }
    inputs
}

#[test]
fn inputs_are_built_once_and_released_after_their_last_consumer() {
    pipeline::enable_observability(ObsConfig::metrics_only());
    let cfg = tiny();
    let requests: Vec<u64> = Environment::all()
        .iter()
        .map(|env| EnvRun::new(*env, &cfg).unwrap().requests.len() as u64)
        .collect();
    let (mail, web) = (requests[0], requests[1]);

    let ids: Vec<String> = matrix::EXPERIMENTS
        .iter()
        .map(|(id, _)| (*id).to_owned())
        .collect();
    // Reversed, every input's last consumer comes before the end (the
    // family's is t4, the environments' t2), so release is checked
    // mid-run too.
    let reversed: Vec<String> = ids.iter().rev().cloned().collect();
    // Four environment inputs, each generated and simulated once, plus
    // the eight-config sweeps of T6 (mail) and T8 (web) over them.
    let once = Work {
        generate: 4,
        simulate: 4 + 8 + 8,
        family: 1,
        requests: requests.iter().sum::<u64>() + 8 * mail + 8 * web,
    };
    for jobs in [1, 2, 8] {
        for order in [&ids, &reversed] {
            let mut inputs = None;
            let did =
                measured(|| inputs = Some(run_checking_release(order, &cfg, &Pool::new(jobs))));
            assert_eq!(did, once, "--jobs {jobs}");
            let inputs = inputs.unwrap();
            for input in Input::all() {
                assert!(
                    !inputs.is_live(input),
                    "--jobs {jobs}: {input:?} outlived the run"
                );
            }
        }
    }

    // Outside a matrix, every call builds what it reads.
    for _ in 0..2 {
        let did = measured(|| {
            matrix::run_one("t2", &cfg).unwrap();
        });
        assert_eq!((did.generate, did.simulate, did.family), (4, 4, 0));
        let did = measured(|| {
            matrix::run_one("f10", &cfg).unwrap();
        });
        assert_eq!((did.generate, did.simulate, did.family), (1, 1, 1));
    }
    // An experiment cannot read an input it did not declare.
    let inputs = matrix::inputs_for(&["t1"], &cfg);
    assert!(inputs.env(Environment::Mail).is_err());
    assert!(inputs.family().is_err());
}
