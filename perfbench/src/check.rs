//! Output checks. Compiled results must be bitwise equal to a serial run of
//! the same absolute trials on the reference tier (or, for served requests,
//! to `Server::run_solo` over the same range), and within [`BASELINE_TOL`]
//! of the dynamic baseline interpreter where a family supports it.
//!
//! Only values that repeat exactly are compared: outputs and pass counts.
//! Printed IR and artifact bytes are not, because they differ between two
//! compiles of one model in one process (see `tests/determinism.rs`).

use distill::{ExecMode, RunSpec, Session, Target, Tier, TierPolicy, TrialInput};
use distill_models::{TargetKind, WorkloadSpec};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Largest difference allowed against the baseline interpreter, relative to
/// the magnitude of the baseline value (absolute below 1).
pub const BASELINE_TOL: f64 = 1e-9;

/// Per-trial outputs and pass counts of a contiguous trial range.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trials {
    pub outputs: Vec<Vec<f64>>,
    pub passes: Vec<u64>,
}

impl Trials {
    pub fn slice(&self, from: usize, len: usize) -> Option<Trials> {
        let end = from.checked_add(len)?;
        Some(Trials {
            outputs: self.outputs.get(from..end)?.to_vec(),
            passes: self.passes.get(from..end)?.to_vec(),
        })
    }
}

impl From<distill::RunResult> for Trials {
    fn from(r: distill::RunResult) -> Trials {
        Trials {
            outputs: r.outputs,
            passes: r.passes,
        }
    }
}

/// Trials `[offset, offset + trials)` run one at a time on the reference
/// tier: the behavioural oracle.
pub fn reference(
    model: &distill::Composition,
    inputs: &[TrialInput],
    offset: usize,
    trials: usize,
) -> Result<Trials, String> {
    Session::new(model)
        .tier(TierPolicy::Fixed(Tier::Reference))
        .build()
        .and_then(|mut r| r.run(&RunSpec::new(inputs.to_vec(), trials).with_offset(offset)))
        .map(Trials::from)
        .map_err(|e| format!("{}: reference run failed: {e}", model.name))
}

/// A unit of work for [`in_parallel`].
pub type Task<'a, T> = Box<dyn FnOnce() -> T + Send + 'a>;

/// Run `tasks` on `threads` threads, each taking the next task as it
/// finishes one; results come back in task order.
pub fn in_parallel<'a, T: Send>(threads: usize, tasks: Vec<Task<'a, T>>) -> Vec<T> {
    let slots: Vec<Mutex<Option<Task<'a, T>>>> =
        tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, T)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads.max(1))
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(slot) = slots.get(i) else {
                            return out;
                        };
                        let task = slot
                            .lock()
                            .expect("task slot lock")
                            .take()
                            .expect("each task runs once");
                        out.push((i, task()));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("check worker panicked"))
            .collect()
    });
    done.sort_by_key(|d| d.0);
    done.into_iter().map(|d| d.1).collect()
}

/// Pieces per family when a reference run is spread over the cores.
const PIECES_PER_THREAD: usize = 2;

/// [`reference`] over trials `[0, trials)` of each job, spread over
/// `threads` threads in offset windows. Trials are independent when the
/// model resets its state each trial, so the windows concatenate to the
/// serial run; other models run as one window.
pub fn references(
    jobs: &[(&distill::Composition, &[TrialInput], usize)],
    threads: usize,
) -> Vec<Result<Trials, String>> {
    let mut owner = Vec::new();
    let mut tasks: Vec<Task<'_, Result<Trials, String>>> = Vec::new();
    for (j, &(model, inputs, trials)) in jobs.iter().enumerate() {
        let pieces = if model.reset_state_each_trial {
            (threads * PIECES_PER_THREAD).clamp(1, trials.max(1))
        } else {
            1
        };
        let per = trials.div_ceil(pieces).max(1);
        for lo in (0..trials).step_by(per) {
            owner.push(j);
            tasks.push(Box::new(move || {
                reference(model, inputs, lo, per.min(trials - lo))
            }));
        }
    }
    let mut out: Vec<Result<Trials, String>> = jobs.iter().map(|_| Ok(Trials::default())).collect();
    for (j, piece) in owner.into_iter().zip(in_parallel(threads, tasks)) {
        out[j] = match (std::mem::replace(&mut out[j], Ok(Trials::default())), piece) {
            (Ok(mut acc), Ok(p)) => {
                acc.outputs.extend(p.outputs);
                acc.passes.extend(p.passes);
                Ok(acc)
            }
            (Err(e), _) | (_, Err(e)) => Err(e),
        };
    }
    out
}

/// Trials `[0, trials)` on the dynamic baseline interpreter, for families
/// registered for it (it has no random-access trial path, so it always
/// starts at trial 0).
pub fn baseline(
    spec: &WorkloadSpec,
    model: &distill::Composition,
    inputs: &[TrialInput],
    trials: usize,
) -> Result<Option<Trials>, String> {
    if !spec.supports(TargetKind::Baseline) {
        return Ok(None);
    }
    Session::new(model)
        .target(Target::Baseline(ExecMode::CPython))
        .build()
        .and_then(|mut r| r.run(&RunSpec::new(inputs.to_vec(), trials)))
        .map(|r| Some(Trials::from(r)))
        .map_err(|e| format!("{}: baseline run failed: {e}", spec.name))
}

/// Bitwise equality of outputs and pass counts.
pub fn exact(what: &str, got: &Trials, want: &Trials) -> Result<(), String> {
    if got.passes != want.passes {
        return Err(format!("{what}: pass counts differ from the reference"));
    }
    same_shape(what, got, want)?;
    for (t, (g, w)) in got.outputs.iter().zip(&want.outputs).enumerate() {
        if g.iter().zip(w).any(|(a, b)| a.to_bits() != b.to_bits()) {
            return Err(format!(
                "{what}: trial {t} is not bitwise equal to the reference"
            ));
        }
    }
    Ok(())
}

/// Outputs within [`BASELINE_TOL`] of the baseline's and equal pass counts,
/// over the trials both cover (`got` starts at absolute trial `offset`).
pub fn close(what: &str, got: &Trials, offset: usize, baseline: &Trials) -> Result<(), String> {
    let Some(len) = baseline.outputs.len().checked_sub(offset) else {
        return Ok(());
    };
    let len = len.min(got.outputs.len());
    let want = baseline
        .slice(offset, len)
        .ok_or_else(|| format!("{what}: baseline range out of bounds"))?;
    let got = got
        .slice(0, len)
        .ok_or_else(|| format!("{what}: result range out of bounds"))?;
    if got.passes != want.passes {
        return Err(format!(
            "{what}: pass counts differ from the baseline interpreter"
        ));
    }
    same_shape(what, &got, &want)?;
    for (t, (g, w)) in got.outputs.iter().zip(&want.outputs).enumerate() {
        for (a, b) in g.iter().zip(w) {
            if (a - b).abs() > BASELINE_TOL * b.abs().max(1.0) {
                return Err(format!(
                    "{what}: trial {} differs from the baseline interpreter ({a} vs {b})",
                    offset + t
                ));
            }
        }
    }
    Ok(())
}

fn same_shape(what: &str, got: &Trials, want: &Trials) -> Result<(), String> {
    let shape = |t: &Trials| t.outputs.iter().map(Vec::len).collect::<Vec<_>>();
    if shape(got) != shape(want) {
        return Err(format!("{what}: output shape differs from the reference"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trials(values: &[f64]) -> Trials {
        Trials {
            outputs: values.iter().map(|&v| vec![v, -v]).collect(),
            passes: vec![3; values.len()],
        }
    }

    #[test]
    fn exact_compares_bits() {
        let a = trials(&[1.0, 2.0]);
        assert!(exact("x", &a, &a.clone()).is_ok());
        assert!(exact("x", &trials(&[0.0]), &trials(&[-0.0])).is_err());
        assert!(exact("x", &trials(&[1.0]), &trials(&[1.0 + f64::EPSILON])).is_err());
        assert!(exact("x", &trials(&[1.0]), &trials(&[1.0, 2.0])).is_err());
    }

    #[test]
    fn in_parallel_keeps_task_order() {
        let tasks: Vec<Task<'_, usize>> = (0..20usize)
            .map(|i| Box::new(move || i * i) as Task<'_, usize>)
            .collect();
        assert_eq!(
            in_parallel(3, tasks),
            (0..20).map(|i| i * i).collect::<Vec<_>>()
        );
    }

    #[test]
    fn windowed_references_concatenate_to_the_serial_run() {
        let w = distill_models::predator_prey_s();
        let serial = reference(&w.model, &w.inputs, 0, 13).unwrap();
        let split = references(&[(&w.model, &w.inputs, 13)], 3);
        assert_eq!(split.len(), 1);
        assert!(exact("split", split[0].as_ref().unwrap(), &serial).is_ok());
    }

    #[test]
    fn close_allows_the_tolerance_over_the_shared_range() {
        let base = trials(&[1.0, 2.0, 3.0, 4.0]);
        let got = trials(&[3.0 + 1e-12, 4.0]);
        assert!(close("x", &got, 2, &base).is_ok());
        assert!(close("x", &trials(&[3.1]), 2, &base).is_err());
        // Entirely past the baseline's range: nothing to compare.
        assert!(close("x", &trials(&[9.0]), 7, &base).is_ok());
        // Partly past it: the shared prefix is compared.
        assert!(close("x", &trials(&[4.0, 9.0]), 3, &base).is_ok());
    }
}
