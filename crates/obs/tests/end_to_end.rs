//! End-to-end: the call-site-cached macros record into the global registry,
//! share storage with registry lookups, and stay exact across `dtp-par`
//! workers.

use dtp_obs::{global, registry::Registry};

#[test]
fn macro_call_sites_share_storage_with_the_registry() {
    dtp_obs::counter!("e2e.shared").add(2);
    for _ in 0..3 {
        dtp_obs::counter!("e2e.shared").inc();
    }
    global().counter("e2e.shared").add(10);
    assert_eq!(dtp_obs::counter!("e2e.shared").get(), 15);
    assert_eq!(global().snapshot().counters["e2e.shared"], 15);

    dtp_obs::gauge!("e2e.level").set(2.5);
    assert_eq!(global().gauge("e2e.level").get(), 2.5);
    dtp_obs::histogram!("e2e.sizes").observe(4.0);
    assert_eq!(global().histogram("e2e.sizes").count(), 1);
}

#[test]
fn spans_on_par_workers_land_in_one_histogram() {
    for (threads, n) in [(1, 37), (4, 211)] {
        let before = global().histogram("span.e2e.worker").count();
        let ids = dtp_par::with_threads(threads, || {
            dtp_par::par_map_index("e2e.spans", n, |i| {
                let _span = dtp_obs::span!("e2e.worker");
                i
            })
        });
        assert_eq!(ids, (0..n).collect::<Vec<_>>());
        let after = global().histogram("span.e2e.worker").snapshot();
        assert_eq!(after.count - before, n as u64, "at {threads} threads");
        assert_eq!(after.rejected, 0);
        assert!(after.min >= 0.0);
    }
}

#[test]
fn a_macro_asking_for_another_kind_gets_a_detached_handle() {
    global().counter("e2e.kind");
    let conflicts = global().kind_conflicts();
    let detached = dtp_obs::histogram!("e2e.kind");
    detached.observe(1.0);
    assert_eq!(detached.count(), 1, "the detached handle still works");
    assert_eq!(global().kind_conflicts(), conflicts + 1);
    let snap = global().snapshot();
    assert_eq!(snap.counters["e2e.kind"], 0, "the counter is untouched");
    assert!(!snap.histograms.contains_key("e2e.kind"));
}

#[test]
fn local_registries_are_isolated_from_global() {
    let local = Registry::new();
    local.counter("e2e.local_only").inc();
    assert_eq!(local.snapshot().counters["e2e.local_only"], 1);
    assert!(!global().snapshot().counters.contains_key("e2e.local_only"));
}
