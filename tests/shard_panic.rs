//! Panic-safety of the in-process shard path: a worker thread that panics
//! mid-sweep must surface as a typed `DistillError`, not a hung join, a
//! propagated unwind, or a silent partial result.
//!
//! Uses the core crate's test hook (`distill::test_hooks::panic_on_trial`)
//! to detonate a chosen trial. The hook is process-global, so this suite
//! lives in its own integration-test binary — the harness gives it its own
//! process — and every test disarms the hook before returning. The harness
//! still runs the tests of one binary on parallel threads, so each test holds
//! `HOOK_LOCK` while the hook is armed; otherwise one test's armed trial
//! fires inside the other's run.

use std::sync::{Mutex, MutexGuard};

use distill::{DistillError, RunSpec, Session};

const TRIALS: usize = 24;

static HOOK_LOCK: Mutex<()> = Mutex::new(());

/// Serialize the tests that arm the process-global hook. A test that failed
/// while holding the lock poisons it; the hook is re-disarmed either way.
fn hook_lock() -> MutexGuard<'static, ()> {
    let guard = HOOK_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    distill::test_hooks::panic_on_trial(None);
    guard
}

#[test]
fn panicking_shard_worker_surfaces_as_driver_error() {
    let _hook = hook_lock();
    let w = distill_models::predator_prey_s();
    let spec = RunSpec::new(w.inputs.clone(), TRIALS)
        .with_batch(4)
        .with_shards(4);

    // Detonate a mid-space trial: some worker thread picks up its chunk and
    // panics while the other workers keep draining the queue.
    distill::test_hooks::panic_on_trial(Some(13));
    let result = Session::new(&w.model).build().unwrap().run(&spec);
    distill::test_hooks::panic_on_trial(None);

    let err = result.expect_err("a panicking worker must fail the run");
    match &err {
        DistillError::Driver(m) => {
            assert!(
                m.contains("panicked") && m.contains("trial 13"),
                "error should identify the panic: {m}"
            );
        }
        other => panic!("expected a Driver error, got {other:?}"),
    }

    // The driver is not poisoned: the same session contract works again
    // once the fault is gone, and matches a serial run bitwise.
    let healthy = Session::new(&w.model).build().unwrap().run(&spec).unwrap();
    let serial = Session::new(&w.model)
        .build()
        .unwrap()
        .run(&RunSpec::new(w.inputs.clone(), TRIALS))
        .unwrap();
    assert_eq!(healthy.outputs, serial.outputs);
    assert_eq!(healthy.passes, serial.passes);
}

#[test]
fn serial_path_reports_the_injected_panic_too() {
    // The unsharded whole-model path runs the chunk on the caller's thread;
    // the hook must not leak an unwind through the public API there either —
    // it panics on the caller thread, which is an unwind `run` does not
    // catch, so this test pins the *sharded* path as the panic-safe one and
    // documents the difference.
    let _hook = hook_lock();
    let w = distill_models::predator_prey_s();
    distill::test_hooks::panic_on_trial(Some(2));
    let outcome = std::panic::catch_unwind(|| {
        Session::new(&w.model)
            .build()
            .unwrap()
            .run(&RunSpec::new(w.inputs.clone(), 6))
    });
    distill::test_hooks::panic_on_trial(None);
    assert!(
        outcome.is_err(),
        "serial path runs on the caller thread; the injected panic unwinds"
    );
}
