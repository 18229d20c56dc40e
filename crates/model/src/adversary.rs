//! Adaptive adversaries: workloads that watch the placement.
//!
//! The lower-bound constructions (Lemma 4.1, Avin et al.'s Ω(k)) grant
//! the adversary one power: it sees the online algorithm's placement
//! *before* choosing each request. That is exactly
//! [`Workload::next_request`] on a workload whose
//! [`Workload::is_adaptive`] answers `true`, so an adversary is a plain
//! [`Workload`] and runs wherever workloads do: the simulation
//! [`Driver`](crate::Driver), the scenario engine and the serve stack.
//!
//! Three built-in strategies:
//!
//! * [`CutChaser`](crate::workload::CutChaser) — rotate over the
//!   current cut edges, spreading pressure;
//! * [`GreedyCutMaximizer`] — always hit the cut edge incident to the
//!   most loaded server, concentrating pressure where migrations are
//!   most constrained;
//! * [`SeparationChaser`] — hit the cut edge whose endpoints were
//!   collocated most recently, punishing every merge the algorithm
//!   performs (the "separate what was just joined" adversary).
//!
//! Every strategy is deterministic given the placement stream, so
//! adversary-driven runs are reproducible and snapshot/restorable. The
//! randomized *search* over adversary schedules lives in the scenario
//! engine (`rdbp_engine::search`), not here: strategies are the inner
//! deterministic moves, search composes them.

use serde::{DeError, Value};

use crate::workload::{obj, Workload};
use crate::{Edge, Placement};

/// **Greedy cut-maximizer**: request the cut edge incident to the most
/// loaded server (ties: smaller load on the other endpoint, then the
/// smaller edge index). Against algorithms that collocate by migrating
/// into the requested edge's servers, this pins the pressure where
/// capacity head-room is smallest, forcing either repeated
/// communication charges or cascading evictions.
///
/// If the placement has no cut edge, edge 0 is requested.
#[derive(Debug, Clone, Copy, Default)]
pub struct GreedyCutMaximizer;

impl GreedyCutMaximizer {
    /// Creates the (stateless) strategy.
    #[must_use]
    pub fn new() -> Self {
        Self
    }
}

impl Workload for GreedyCutMaximizer {
    fn next_request(&mut self, placement: &Placement) -> Edge {
        let mut best: Option<(u32, u32, Edge)> = None;
        for e in placement.cut_edges() {
            let (u, v) = placement.instance().endpoints(e);
            let lu = placement.load(placement.server(u));
            let lv = placement.load(placement.server(v));
            let key = (lu.max(lv), lu.min(lv));
            let better = match best {
                None => true,
                // Max primary load; among those, the tighter (smaller)
                // secondary load binds the algorithm harder; the edge
                // index breaks remaining ties deterministically.
                Some((bmax, bmin, be)) => {
                    key.0 > bmax || (key.0 == bmax && (key.1 < bmin || (key.1 == bmin && e < be)))
                }
            };
            if better {
                best = Some((key.0, key.1, e));
            }
        }
        best.map_or(Edge(0), |(_, _, e)| e)
    }

    fn is_adaptive(&self) -> bool {
        true
    }

    fn name(&self) -> &'static str {
        "greedy-cut"
    }

    // Stateless: an empty snapshot restores trivially.
    fn export_state(&self) -> Option<Value> {
        Some(obj(vec![]))
    }

    fn restore_state(&mut self, _state: &Value) -> Result<(), DeError> {
        Ok(())
    }
}

/// **Separation chaser**: request the cut edge whose endpoints were
/// collocated most recently (ties: the smaller edge index). Whenever
/// the algorithm merges a requested pair, that pair becomes the most
/// recently collocated — so the moment the algorithm separates it
/// again (or any eviction cuts it), the adversary pounces. Algorithms
/// that shuffle processes pay for every join they later undo.
///
/// If the placement has no cut edge, edge 0 is requested.
#[derive(Debug, Clone, Default)]
pub struct SeparationChaser {
    clock: u64,
    last_collocated: Vec<u64>,
}

impl SeparationChaser {
    /// Creates the strategy (sizes its timestamp table lazily on first
    /// observation).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl Workload for SeparationChaser {
    fn next_request(&mut self, placement: &Placement) -> Edge {
        let n = placement.instance().n() as usize;
        if self.last_collocated.len() != n {
            self.last_collocated = vec![0; n];
        }
        self.clock += 1;
        let mut best: Option<(u64, Edge)> = None;
        for e in placement.instance().edges() {
            if placement.is_cut(e) {
                let stamp = self.last_collocated[e.0 as usize];
                let better = match best {
                    None => true,
                    Some((bstamp, be)) => stamp > bstamp || (stamp == bstamp && e < be),
                };
                if better {
                    best = Some((stamp, e));
                }
            } else {
                self.last_collocated[e.0 as usize] = self.clock;
            }
        }
        best.map_or(Edge(0), |(_, e)| e)
    }

    fn is_adaptive(&self) -> bool {
        true
    }

    fn name(&self) -> &'static str {
        "separation"
    }

    fn export_state(&self) -> Option<Value> {
        use serde::Serialize as _;
        Some(obj(vec![
            ("clock", self.clock.to_value()),
            ("last_collocated", self.last_collocated.to_value()),
        ]))
    }

    fn restore_state(&mut self, state: &Value) -> Result<(), DeError> {
        use serde::Deserialize as _;
        self.clock = u64::from_value(state.get_field("clock")?)?;
        self.last_collocated = Vec::<u64>::from_value(state.get_field("last_collocated")?)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{record, CutChaser};
    use crate::{Placement, Process, RingInstance, Server};

    fn placement() -> Placement {
        Placement::contiguous(&RingInstance::new(16, 4, 4))
    }

    #[test]
    fn greedy_cut_requests_cut_edges_on_the_heaviest_server() {
        let mut p = placement();
        // Unbalance: server 1 takes process 0, so server 1 has load 5.
        assert!(p.migrate(Process(0), Server(1)));
        let mut adv = GreedyCutMaximizer::new();
        let e = adv.next_request(&p);
        assert!(p.is_cut(e));
        let (u, v) = p.instance().endpoints(e);
        let hit = p.load(p.server(u)).max(p.load(p.server(v)));
        let heaviest = (0..4).map(|s| p.load(Server(s))).max().unwrap();
        assert_eq!(hit, heaviest, "must target the most loaded server");
    }

    #[test]
    fn greedy_cut_is_deterministic_and_falls_back_to_edge_zero() {
        let p = placement();
        let mut a = GreedyCutMaximizer::new();
        let mut b = GreedyCutMaximizer::new();
        assert_eq!(a.next_request(&p), b.next_request(&p));
        // A single-server instance has no cut edge.
        let whole = Placement::contiguous(&RingInstance::new(8, 1, 8));
        assert_eq!(a.next_request(&whole), Edge(0));
    }

    #[test]
    fn separation_chaser_pounces_on_the_freshest_separation() {
        let mut p = placement();
        let mut adv = SeparationChaser::new();
        // Warm up timestamps on the contiguous placement.
        let first = adv.next_request(&p);
        assert!(p.is_cut(first));
        // Collocate edge 3's endpoints (3,4) by moving process 4 to
        // server 0, then separate them again: edge 3 is now the most
        // recently collocated cut edge.
        assert!(p.migrate(Process(4), Server(0)));
        let _ = adv.next_request(&p); // observes (3,4) joined
        assert!(p.migrate(Process(4), Server(1)));
        let e = adv.next_request(&p);
        assert_eq!(e, Edge(3), "must chase the freshest separation");
    }

    #[test]
    fn separation_chaser_snapshot_roundtrip() {
        let p = placement();
        let mut adv = SeparationChaser::new();
        let _ = adv.next_request(&p);
        let snap = adv.export_state().unwrap();
        let mut fresh = SeparationChaser::new();
        fresh.restore_state(&snap).unwrap();
        assert_eq!(adv.next_request(&p), fresh.next_request(&p));
    }

    #[test]
    fn cut_chaser_adversary_matches_its_workload_stream() {
        // Drawn as an adversary (boxed, the way search holds it), the
        // cut-chaser replays its concrete workload stream exactly.
        let p = placement();
        let mut as_workload = CutChaser::new();
        let want = record(&mut as_workload, &p, 12);
        let mut as_adversary: Box<dyn Workload> = Box::new(CutChaser::new());
        let got = record(&mut *as_adversary, &p, 12);
        assert_eq!(got, want, "one strategy, one stream");
    }

    #[test]
    fn adversary_workload_is_adaptive_and_delegates() {
        let p = placement();
        let mut w = GreedyCutMaximizer::new();
        assert!(w.is_adaptive());
        assert_eq!(w.name(), "greedy-cut");
        let e = w.next_request(&p);
        assert!(p.is_cut(e));
        let snap = w.export_state().unwrap();
        assert!(w.restore_state(&snap).is_ok());
    }

    #[test]
    fn boxed_adversaries_dispatch() {
        // Every strategy is a plain workload: named, adaptive, chasing
        // a cut edge, and checkpointable through `Box<dyn Workload>`.
        let p = placement();
        let strategies: [(Box<dyn Workload>, &str); 3] = [
            (Box::new(CutChaser::new()), "cut-chaser"),
            (Box::new(GreedyCutMaximizer::new()), "greedy-cut"),
            (Box::new(SeparationChaser::new()), "separation"),
        ];
        for (mut boxed, name) in strategies {
            assert_eq!(boxed.name(), name);
            assert!(boxed.is_adaptive(), "{name} must be adaptive");
            assert!(p.is_cut(boxed.next_request(&p)), "{name} must hit a cut");
            let snap = boxed.export_state().expect("adversaries checkpoint");
            assert!(boxed.restore_state(&snap).is_ok(), "{name}");
        }
    }
}
