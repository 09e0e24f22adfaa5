//! The per-thread, hub-keyed cache behind the span buffers and the
//! flight rings: each thread keeps one buffer per hub it records into,
//! found by a linear scan (a thread touches 1–2 live hubs at a time).
//!
//! A hub's registry holds the other reference to each of its buffers, so
//! once the hub is dropped the cache holds the only one. Such entries
//! are pruned on the next miss, and one of them is recycled for the new
//! hub instead of allocating a fresh buffer. Without this, a long-lived
//! worker that runs one short-lived hub per job (the mscd service) would
//! keep every job's buffers alive for the life of the thread.

use std::sync::Arc;

/// A per-thread buffer that can be handed to a new hub once its old hub
/// is gone.
pub(crate) trait Recycle {
    /// Forget every record, as if freshly allocated.
    fn clear(&mut self);
}

pub(crate) struct HubCache<B> {
    entries: Vec<(u64, Arc<B>)>,
}

impl<B: Recycle> HubCache<B> {
    pub(crate) const fn new() -> HubCache<B> {
        HubCache {
            entries: Vec::new(),
        }
    }

    /// The calling thread's buffer for hub `hub_id`. On a miss, entries
    /// of dropped hubs are pruned and `register` is called with one of
    /// them, cleared, to reuse (or `None` to allocate); it must add the
    /// buffer to the hub's registry and return it.
    pub(crate) fn get(
        &mut self,
        hub_id: u64,
        register: impl FnOnce(Option<Arc<B>>) -> Arc<B>,
    ) -> &B {
        if let Some(i) = self.entries.iter().position(|(id, _)| *id == hub_id) {
            return &self.entries[i].1;
        }
        let mut spare = None;
        let mut i = 0;
        while i < self.entries.len() {
            let (_, buf) = &mut self.entries[i];
            // No other reference can appear once the registry let go.
            if let Some(b) = Arc::get_mut(buf) {
                b.clear();
                let (_, dead) = self.entries.swap_remove(i);
                spare.get_or_insert(dead);
            } else {
                i += 1;
            }
        }
        self.entries.push((hub_id, register(spare)));
        &self.entries[self.entries.len() - 1].1
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use crate::{install_thread_hub, FlightKind, TelemetryHub};

    #[test]
    fn dead_hub_buffers_are_recycled_not_kept() {
        std::thread::spawn(|| {
            let live = TelemetryHub::new();
            live.set_enabled(true);
            let mut kept = 0;
            for i in 0..1000u64 {
                let short = TelemetryHub::new();
                short.set_enabled(true);
                {
                    let _g = install_thread_hub(std::sync::Arc::clone(&short));
                    crate::event("job");
                    crate::flight(FlightKind::StepBegin, 0, 0, 0, i);
                }
                if i % 10 == 0 {
                    let _g = install_thread_hub(std::sync::Arc::clone(&live));
                    crate::event("live");
                    crate::flight(FlightKind::StepBegin, 0, 0, 0, i);
                    kept += 1;
                }
                // Live hubs here: `live` and `short`; the cache may hold
                // one more entry (a dead hub's buffer awaiting reuse).
                assert!(crate::spans::cached_buffers() <= 3, "span cache grew");
                assert!(crate::recorder::cached_rings() <= 3, "flight cache grew");
            }
            let spans = live.spans.collect().0;
            assert_eq!(spans.len(), kept);
            assert!(spans.iter().all(|r| r.name == "live"));
            let flights = live.snapshot_flight();
            assert_eq!(flights.len(), kept);
            assert!(flights.iter().all(|r| r.seq % 10 == 0));
        })
        .join()
        .unwrap();
    }
}
