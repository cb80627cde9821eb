//! Loom model checks for admission-permit release on panic.
//!
//! Compiled only under `RUSTFLAGS="--cfg vcsql_loom"` (the model-checking
//! lane): `vcsql_bsp::sync` then re-exports the `loom` compat
//! crate's shadow `Mutex`/`Condvar`, so the whole admission controller
//! runs under the deterministic scheduler, which explores every
//! preemption-bounded interleaving inside `loom::model`. Checked here:
//!
//! * a permit holder that **panics** releases its slot under every
//!   schedule — the RAII `Drop` runs during the unwind, so
//!   `total_in_flight` returns to zero and the next acquire is granted
//!   (a leaked slot would park that acquire forever, which the model
//!   reports as a deadlock rather than a pass);
//! * a panicking tenant racing a well-behaved one never wedges admission:
//!   with a global bound of one, the bystander can only ever be admitted
//!   because the unwind gave the slot back.
//!
//! The controller is built *inside* the model so its mutex and condvar
//! register with the model's scheduler.
#![cfg(vcsql_loom)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Once};
use vcsql_server::AdmissionController;

/// Every explored schedule panics on purpose; without this filter the
/// default hook would print a backtrace header per iteration. Installed
/// once for the whole test binary, forwarding every *other* panic to the
/// previous hook so real failures still print.
fn silence_injected_panics() {
    static SILENCE: Once = Once::new();
    SILENCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<&str>()
                .is_some_and(|m| m.contains("injected admission panic"));
            if !injected {
                prev(info);
            }
        }));
    });
}

#[test]
fn panicking_holder_releases_its_slot_under_every_schedule() {
    silence_injected_panics();
    let explored = loom::Builder::new().preemptions(2).check(|| {
        let ctrl = AdmissionController::new(1, 1);
        // The permit moves INTO the panicking closure, so the unwind is the
        // only thing that can release it — exactly `run_sql`'s shape, where
        // the RAII permit spans the `catch_unwind` around tenant execution.
        let r = catch_unwind(AssertUnwindSafe(|| {
            let _permit = ctrl.acquire(0);
            panic!("injected admission panic");
        }));
        assert!(r.is_err(), "the injected panic must surface");
        assert_eq!(ctrl.total_in_flight(), 0, "panicked holder leaked its slot");
        // The slot is reusable: with bounds 1/1 this acquire is only
        // grantable because the unwind released the first permit. A leak
        // parks it forever and the model reports a deadlock, not a pass.
        let permit = ctrl.acquire(1);
        assert_eq!(ctrl.total_in_flight(), 1);
        drop(permit);
        assert_eq!(ctrl.total_in_flight(), 0);
    });
    // One thread, so one schedule: what the model adds over a plain test is
    // loom's deadlock verdict on a leaked slot.
    assert!(explored.complete, "interleaving space must be fully explored");
}

#[test]
fn panicking_tenant_racing_a_bystander_never_wedges_admission() {
    silence_injected_panics();
    let explored = loom::Builder::new().preemptions(1).check(|| {
        let ctrl = Arc::new(AdmissionController::new(1, 1));
        let panicker = {
            let ctrl = Arc::clone(&ctrl);
            loom::thread::spawn(move || {
                let r = catch_unwind(AssertUnwindSafe(|| {
                    let _permit = ctrl.acquire(0);
                    panic!("injected admission panic");
                }));
                assert!(r.is_err(), "the injected panic must surface");
            })
        };
        // Global bound 1: whichever way the panicker is scheduled, this
        // acquire is granted only after its slot came back — under every
        // interleaving, or the model deadlocks.
        let permit = ctrl.acquire(1);
        drop(permit);
        panicker.join().expect("the panicking tenant caught its own panic");
        assert_eq!(ctrl.total_in_flight(), 0, "some schedule leaked a slot");
        assert_eq!(ctrl.waiting(), 0, "no ticket may be left queued");
    });
    assert!(explored.complete, "interleaving space must be fully explored");
    assert!(explored.iterations >= 2, "the race must have more than one schedule");
}
