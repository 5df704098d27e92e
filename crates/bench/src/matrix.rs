//! The experiment matrix: id → experiment function table, shared by
//! the `experiments` binary, the determinism integration test, and the
//! benches.
//!
//! Every experiment is a pure function of the [`ExpConfig`] and of the
//! shared [`Input`]s it declares, so the matrix can be fanned out
//! across an engine [`Pool`]: each id is one shard, reading its inputs
//! from one per-run [`Inputs`] context that builds each of them once.
//! The pool runs the shards in an order derived from the declarations
//! ([`schedule`]), and results are handed back in request order, so the
//! rendered report is bit-identical for every `--jobs` value.

use crate::pipeline::{Input, Inputs};
use crate::{figures, tables, ExpConfig, Result};
use spindle_engine::{Pool, Reduce, RunOutcome, ShardFailure};
use spindle_synth::presets::Environment;

/// An experiment adapter: renders one table or figure to a string.
pub type ExpFn = fn(&Inputs) -> Result<String>;

/// What an experiment reads from the run's [`Inputs`].
#[derive(Debug, Clone, Copy)]
pub struct Needs {
    /// The shared inputs it reads.
    pub inputs: &'static [Input],
    /// Whether it reruns the simulator over its input several times:
    /// the longest single shards, which the pool starts first.
    pub sweep: bool,
}

const fn reads(inputs: &'static [Input]) -> Needs {
    Needs {
        inputs,
        sweep: false,
    }
}

const fn sweeps(inputs: &'static [Input]) -> Needs {
    Needs {
        inputs,
        sweep: true,
    }
}

const MAIL: Input = Input::Env(Environment::Mail);
const WEB: Input = Input::Env(Environment::Web);
const ARCHIVE: Input = Input::Env(Environment::Archive);
const FAMILY: Input = Input::Family;
const ENVS: &[Input] = &[MAIL, WEB, Input::Env(Environment::Dev), ARCHIVE];

/// Declares the experiment table: generates one adapter function per
/// experiment (each renders its table or figure to a string), the
/// [`EXPERIMENTS`] id → function map that drives dispatch and the
/// usage line, and [`needs`], each experiment's declared inputs.
macro_rules! experiment_table {
    ($(($id:ident, $module:ident, $needs:expr)),* $(,)?) => {
        $(
            fn $id(inputs: &Inputs) -> Result<String> {
                Ok($module::$id(inputs)?.to_string())
            }
        )*
        /// Every experiment in presentation order.
        pub const EXPERIMENTS: &[(&str, ExpFn)] =
            &[$((stringify!($id), $id as ExpFn)),*];

        /// The inputs experiment `id` declares (none for unknown ids).
        #[must_use]
        pub fn needs(id: &str) -> Needs {
            match id {
                $(stringify!($id) => $needs,)*
                _ => reads(&[]),
            }
        }
    };
}

experiment_table![
    (t1, tables, reads(&[])),
    (t2, tables, reads(ENVS)),
    (t3, tables, reads(ENVS)),
    (t4, tables, reads(&[FAMILY])),
    (t5, tables, reads(&[FAMILY])),
    (t6, tables, sweeps(&[MAIL])),
    (t7, tables, reads(ENVS)),
    (t8, tables, sweeps(&[WEB])),
    (f1, figures, reads(&[MAIL])),
    (f2, figures, reads(ENVS)),
    (f3, figures, reads(ENVS)),
    (f4, figures, reads(&[MAIL, WEB])),
    (f5, figures, reads(&[MAIL])),
    (f6, figures, reads(&[FAMILY])),
    (f7, figures, reads(&[FAMILY])),
    (f8, figures, reads(&[FAMILY])),
    (f9, figures, reads(&[FAMILY])),
    (f10, figures, reads(&[MAIL, FAMILY])),
    (f11, figures, reads(&[MAIL, ARCHIVE])),
    (f12, figures, reads(ENVS)),
    (f13, figures, reads(ENVS)),
];

/// A context holding the inputs that `ids` declare, one consumer per
/// declaring id.
#[must_use]
pub fn inputs_for(ids: &[impl AsRef<str>], cfg: &ExpConfig) -> Inputs {
    Inputs::new(cfg, ids.iter().map(|id| needs(id.as_ref()).inputs))
}

/// The order the pool runs `ids` in, as indices into `ids`: sweeps
/// first, then the rest grouped by the inputs they read, so that each
/// input's consumers run close together and it is dropped early. Ties
/// keep request order.
#[must_use]
pub fn schedule(ids: &[impl AsRef<str>]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..ids.len()).collect();
    order.sort_by_cached_key(|&i| {
        let needs = needs(ids[i].as_ref());
        let mut slots: Vec<usize> = needs.inputs.iter().map(|input| input.slot()).collect();
        slots.sort_unstable();
        (!needs.sweep, slots)
    });
    order
}

fn run_in(id: &str, inputs: &Inputs) -> Result<String> {
    match EXPERIMENTS.iter().find(|(name, _)| *name == id) {
        Some((_, f)) => f(inputs),
        None => Err(format!("unknown experiment id `{id}`").into()),
    }
}

/// Runs a single experiment by id, building the inputs it declares
/// for this call alone.
///
/// # Errors
///
/// Returns an error for unknown ids and propagates experiment failures.
pub fn run_one(id: &str, cfg: &ExpConfig) -> Result<String> {
    run_in(id, &inputs_for(&[id], cfg))
}

/// One finished experiment: its id, rendered output (or error), and
/// wall-clock time in seconds.
#[derive(Debug)]
pub struct MatrixResult {
    /// The experiment id.
    pub id: String,
    /// Rendered output, or the failure.
    pub output: Result<String>,
    /// Wall-clock seconds this experiment took, including any shared
    /// input it was the first to read.
    pub secs: f64,
}

/// Runs the listed experiment ids across `pool`, returning results in
/// the order the ids were given regardless of completion order.
///
/// Experiments are pure functions of `cfg`, so the concatenated output
/// is identical for every pool width.
///
/// # Panics
///
/// Re-raises the first experiment panic, after the other experiments
/// have finished.
#[must_use]
pub fn run_matrix(ids: &[String], cfg: &ExpConfig, pool: &Pool) -> Vec<MatrixResult> {
    let outcome = run_scheduled(ids, &inputs_for(ids, cfg), pool, |_| {}, false);
    if let Some(failure) = outcome.failures.into_iter().next() {
        std::panic::panic_any(failure.payload);
    }
    outcome.results
}

/// The result of a panic-isolated matrix run: every surviving
/// experiment in request order, plus one [`ShardFailure`] per
/// quarantined (panicked) experiment. A failure's `ordinal` indexes
/// the `ids` slice the matrix was launched with.
#[derive(Debug)]
pub struct MatrixOutcome {
    /// Surviving experiments, in request order (gaps at failures).
    pub results: Vec<MatrixResult>,
    /// Experiments whose task panicked, in ordinal order.
    pub failures: Vec<ShardFailure>,
}

/// Where one requested experiment stands in the ordered drain.
enum Pending {
    Running,
    Quarantined,
    Done(MatrixResult),
}

/// Reducer that restores request order: the pool drains in schedule
/// order, and each result waits here until every experiment requested
/// before it has finished or been quarantined. Then it goes to the
/// callback, and is kept for the outcome.
struct RequestOrder<'a, F: FnMut(&MatrixResult)> {
    /// Request index of each schedule position.
    order: &'a [usize],
    /// The next schedule position the pool has not delivered.
    next_pos: usize,
    pending: Vec<Pending>,
    /// The next request index to hand to the callback.
    next: usize,
    out: Vec<MatrixResult>,
    on_done: F,
}

impl<F: FnMut(&MatrixResult)> RequestOrder<'_, F> {
    /// Marks the schedule positions from the last delivered one up to
    /// `pos` as quarantined: the pool delivers survivors in increasing
    /// position order, skipping failures.
    fn skip_to(&mut self, pos: usize) {
        for p in self.next_pos..pos {
            self.pending[self.order[p]] = Pending::Quarantined;
        }
        self.next_pos = pos;
    }

    /// Hands out every resolved result at the head of request order.
    fn flush(&mut self) {
        while let Some(slot) = self.pending.get_mut(self.next) {
            if matches!(slot, Pending::Running) {
                break;
            }
            if let Pending::Done(res) = std::mem::replace(slot, Pending::Quarantined) {
                (self.on_done)(&res);
                self.out.push(res);
            }
            self.next += 1;
        }
    }
}

impl<F: FnMut(&MatrixResult)> Reduce for RequestOrder<'_, F> {
    type Item = MatrixResult;
    type Output = Vec<MatrixResult>;

    fn push(&mut self, pos: usize, item: MatrixResult) {
        self.skip_to(pos);
        self.pending[self.order[pos]] = Pending::Done(item);
        self.next_pos = pos + 1;
        self.flush();
    }

    fn finish(mut self) -> Vec<MatrixResult> {
        self.skip_to(self.order.len());
        self.flush();
        self.out
    }
}

/// Panic-isolated [`run_matrix`]: a panicking experiment (whether its
/// own bug or an injected fault from
/// [`spindle_harden::FaultPlan`](spindle_harden)) is quarantined while
/// every other experiment completes, and `on_done` observes each
/// surviving result in request order as the matrix drains — the hook
/// the `--resume` journal hangs off, so completion records hit disk
/// before the run finishes. Fault ordinals name request positions.
///
/// Surviving results are byte-identical to a fault-free run of the
/// same ids at any `--jobs` value.
pub fn run_matrix_isolated(
    ids: &[String],
    cfg: &ExpConfig,
    pool: &Pool,
    on_done: impl FnMut(&MatrixResult),
) -> MatrixOutcome {
    run_matrix_with(ids, &inputs_for(ids, cfg), pool, on_done)
}

/// [`run_matrix_isolated`] over a caller-held context, which must come
/// from [`inputs_for`] on the same `ids`, so a caller can watch the
/// inputs come and go.
pub fn run_matrix_with(
    ids: &[String],
    inputs: &Inputs,
    pool: &Pool,
    on_done: impl FnMut(&MatrixResult),
) -> MatrixOutcome {
    run_scheduled(ids, inputs, pool, on_done, true)
}

/// Runs `ids` in [`schedule`] order and drains them in request order;
/// `faults` applies the installed fault plan to each request ordinal.
fn run_scheduled(
    ids: &[String],
    inputs: &Inputs,
    pool: &Pool,
    on_done: impl FnMut(&MatrixResult),
    faults: bool,
) -> MatrixOutcome {
    let order = schedule(ids);
    let reducer = RequestOrder {
        order: &order,
        next_pos: 0,
        pending: ids.iter().map(|_| Pending::Running).collect(),
        next: 0,
        out: Vec::with_capacity(ids.len()),
        on_done,
    };
    let RunOutcome {
        output,
        mut failures,
    } = pool.try_map_reduce(
        order.clone(),
        |_pos, ordinal| {
            let id = &ids[ordinal];
            let _lease = inputs.lease(needs(id).inputs);
            if faults {
                spindle_harden::maybe_task_panic(ordinal);
                spindle_harden::maybe_task_hang(ordinal);
            }
            let start = std::time::Instant::now();
            let output = run_in(id, inputs);
            MatrixResult {
                id: id.clone(),
                output,
                secs: start.elapsed().as_secs_f64(),
            }
        },
        reducer,
    );
    for failure in &mut failures {
        failure.ordinal = order[failure.ordinal];
    }
    failures.sort_by_key(|f| f.ordinal);
    MatrixOutcome {
        results: output,
        failures,
    }
}

/// Renders the id list by collapsing consecutive runs sharing an
/// alphabetic prefix: `t1..t8 f1..f13`.
#[must_use]
pub fn id_ranges() -> String {
    let mut groups: Vec<(&str, u32, u32)> = Vec::new();
    for (id, _) in EXPERIMENTS {
        let split = id.find(|c: char| c.is_ascii_digit()).unwrap_or(id.len());
        let (prefix, digits) = id.split_at(split);
        let num: u32 = digits.parse().unwrap_or(0);
        match groups.last_mut() {
            Some((p, _, hi)) if *p == prefix && num == *hi + 1 => *hi = num,
            _ => groups.push((prefix, num, num)),
        }
    }
    groups
        .iter()
        .map(|(p, lo, hi)| {
            if lo == hi {
                format!("{p}{lo}")
            } else {
                format!("{p}{lo}..{p}{hi}")
            }
        })
        .collect::<Vec<_>>()
        .join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_ranges_collapse() {
        assert_eq!(id_ranges(), "t1..t8 f1..f13");
    }

    #[test]
    fn unknown_id_is_an_error() {
        let cfg = ExpConfig::quick();
        assert!(run_one("t99", &cfg).is_err());
    }

    #[test]
    fn isolated_matrix_quarantines_injected_panics() {
        let mut cfg = ExpConfig::quick();
        cfg.ms_span_secs = 30.0;
        cfg.family_drives = 6;
        cfg.hour_weeks = 1;
        let ids: Vec<String> = ["t2", "t1"].iter().map(|s| (*s).to_owned()).collect();

        let plan = spindle_harden::FaultPlan::parse("panic@0").unwrap();
        spindle_harden::install(std::sync::Arc::new(plan));
        let mut seen = Vec::new();
        let outcome = run_matrix_isolated(&ids, &cfg, &Pool::new(2), |r| seen.push(r.id.clone()));
        spindle_harden::uninstall();

        assert_eq!(outcome.failures.len(), 1);
        assert_eq!(outcome.failures[0].ordinal, 0);
        assert!(outcome.failures[0].payload.contains("injected fault"));
        assert_eq!(outcome.results.len(), 1);
        assert_eq!(outcome.results[0].id, "t1");
        assert_eq!(seen, vec!["t1".to_owned()], "on_done sees survivors");
        // The surviving output is identical to a fault-free run.
        let clean = run_one("t1", &cfg).unwrap();
        assert_eq!(outcome.results[0].output.as_ref().unwrap(), &clean);

        // The schedule starts the sweep (request 1) first; the fault
        // ordinal, the failure and the drain still follow request order.
        let ids: Vec<String> = ["f1", "t6", "t1", "t4"]
            .iter()
            .map(|s| (*s).to_owned())
            .collect();
        assert_eq!(schedule(&ids), [1, 2, 0, 3]);
        for jobs in [1, 2, 8] {
            let plan = spindle_harden::FaultPlan::parse("panic@1").unwrap();
            spindle_harden::install(std::sync::Arc::new(plan));
            let mut seen = Vec::new();
            let outcome =
                run_matrix_isolated(&ids, &cfg, &Pool::new(jobs), |r| seen.push(r.id.clone()));
            spindle_harden::uninstall();
            let ordinals: Vec<usize> = outcome.failures.iter().map(|f| f.ordinal).collect();
            assert_eq!(ordinals, [1], "--jobs {jobs}");
            assert_eq!(seen, ["f1", "t1", "t4"], "--jobs {jobs}");
            let survivors: Vec<&str> = outcome.results.iter().map(|r| r.id.as_str()).collect();
            assert_eq!(survivors, ["f1", "t1", "t4"], "--jobs {jobs}");
        }
    }

    #[test]
    fn matrix_results_keep_request_order() {
        let mut cfg = ExpConfig::quick();
        cfg.ms_span_secs = 30.0;
        cfg.family_drives = 6;
        cfg.hour_weeks = 1;
        let ids: Vec<String> = ["t2", "t1"].iter().map(|s| (*s).to_owned()).collect();
        let out = run_matrix(&ids, &cfg, &Pool::new(2));
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].id, "t2");
        assert_eq!(out[1].id, "t1");
    }
}
