//! Baseline online algorithms on the ring.

use serde::{DeError, Deserialize, Serialize, Value};

use rdbp_model::{Edge, OnlineAlgorithm, Placement, Process, RingInstance};

/// Parses a snapshot's placement and checks it belongs to `instance`.
pub(crate) fn placement_field(
    state: &Value,
    instance: &RingInstance,
) -> Result<Placement, DeError> {
    let placement = Placement::from_value(state.get_field("placement")?)?;
    if placement.instance() != instance {
        return Err(DeError(format!(
            "snapshot instance {:?} != {:?}",
            placement.instance(),
            instance
        )));
    }
    Ok(placement)
}

/// The lazy baseline: never migrate, pay every cut request.
///
/// Competitive against nothing, but the natural floor for comparisons —
/// its cost is exactly the request weight on the initial cut edges.
#[derive(Debug)]
pub struct NeverMove {
    placement: Placement,
}

impl NeverMove {
    /// Starts from the canonical contiguous placement.
    #[must_use]
    pub fn new(instance: &RingInstance) -> Self {
        Self {
            placement: Placement::contiguous(instance),
        }
    }

    /// Starts from an explicit placement.
    #[must_use]
    pub fn with_placement(placement: Placement) -> Self {
        Self { placement }
    }
}

impl OnlineAlgorithm for NeverMove {
    fn placement(&self) -> &Placement {
        &self.placement
    }

    fn placement_mut(&mut self) -> &mut Placement {
        &mut self.placement
    }

    fn serve(&mut self, _request: Edge) -> u64 {
        0
    }

    fn name(&self) -> &'static str {
        "never-move"
    }

    // The placement never changes after construction, so a same-config
    // instance already holds all of the state.
    fn export_state(&self) -> Option<Value> {
        Some(Value::Obj(Vec::new()))
    }

    fn restore_state(&mut self, _state: &Value) -> Result<(), DeError> {
        Ok(())
    }
}

/// Greedy collocation by swapping: when a cut edge is requested, pull
/// the counter-clockwise endpoint onto the clockwise endpoint's server
/// and evict that server's least-recently-requested process back —
/// capacity is preserved exactly (loads never change).
///
/// The classic straw man: deterministic, locally plausible, and
/// thrashes badly under rotating demand (cf. the Ω(k) lower bound for
/// deterministic algorithms).
#[derive(Debug)]
pub struct GreedySwap {
    placement: Placement,
    last_touch: Vec<u64>,
    clock: u64,
}

impl GreedySwap {
    /// Starts from the canonical contiguous placement.
    #[must_use]
    pub fn new(instance: &RingInstance) -> Self {
        Self {
            placement: Placement::contiguous(instance),
            last_touch: vec![0; instance.n() as usize],
            clock: 0,
        }
    }
}

impl OnlineAlgorithm for GreedySwap {
    fn placement(&self) -> &Placement {
        &self.placement
    }

    fn placement_mut(&mut self) -> &mut Placement {
        &mut self.placement
    }

    fn serve(&mut self, request: Edge) -> u64 {
        self.clock += 1;
        let (u, v) = self.placement.instance().endpoints(request);
        self.last_touch[u.0 as usize] = self.clock;
        self.last_touch[v.0 as usize] = self.clock;
        let su = self.placement.server(u);
        let sv = self.placement.server(v);
        if su == sv {
            return 0;
        }
        // Victim: least-recently-touched process on v's server (not v).
        let victim = self
            .placement
            .instance()
            .processes()
            .filter(|&p| p != v && self.placement.server(p) == sv)
            .min_by_key(|&p| (self.last_touch[p.0 as usize], p.0));
        let Some(w) = victim else {
            return 0; // v alone on its server: swapping is pointless
        };
        let mut moved = 0;
        if self.placement.migrate(u, sv) {
            moved += 1;
        }
        if self.placement.migrate(w, su) {
            moved += 1;
        }
        moved
    }

    fn name(&self) -> &'static str {
        "greedy-swap"
    }

    fn export_state(&self) -> Option<Value> {
        Some(Value::Obj(vec![
            ("placement".into(), self.placement.to_value()),
            ("last_touch".into(), self.last_touch.to_value()),
            ("clock".into(), self.clock.to_value()),
        ]))
    }

    fn restore_state(&mut self, state: &Value) -> Result<(), DeError> {
        let placement = placement_field(state, self.placement.instance())?;
        let last_touch = <Vec<u64> as Deserialize>::from_value(state.get_field("last_touch")?)?;
        if last_touch.len() != self.last_touch.len() {
            return Err(DeError(format!(
                "last_touch has {} entries, expected {}",
                last_touch.len(),
                self.last_touch.len()
            )));
        }
        self.clock = u64::from_value(state.get_field("clock")?)?;
        self.placement = placement;
        self.last_touch = last_touch;
        Ok(())
    }
}

/// Component-growing deterministic repartitioner, inspired by the
/// connectivity-based polynomial-time algorithm of Forner, Räcke &
/// Schmid (APOCS 2021): communicating processes are merged into
/// components (union–find); a component is kept collocated by migrating
/// the smaller half onto the larger's server, using augmentation 2k.
/// When a component would exceed `k`, the component structure resets
/// (a new phase).
///
/// Deterministic — on the ring the cut-chaser still forces Ω(k)·OPT,
/// which is exactly what experiment F2 demonstrates.
#[derive(Debug)]
pub struct ComponentSweep {
    placement: Placement,
    parent: Vec<u32>,
    size: Vec<u32>,
    capacity: u32,
}

impl ComponentSweep {
    /// Starts from the canonical contiguous placement.
    #[must_use]
    pub fn new(instance: &RingInstance) -> Self {
        let n = instance.n();
        Self {
            placement: Placement::contiguous(instance),
            parent: (0..n).collect(),
            size: vec![1; n as usize],
            capacity: instance.capacity(),
        }
    }

    /// Load bound honoured by this baseline (augmentation 2).
    #[must_use]
    pub fn load_bound(&self) -> u32 {
        2 * self.capacity
    }

    fn find(&mut self, p: u32) -> u32 {
        let mut root = p;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        let mut cur = p;
        while self.parent[cur as usize] != root {
            let next = self.parent[cur as usize];
            self.parent[cur as usize] = root;
            cur = next;
        }
        root
    }

    fn reset_components(&mut self) {
        for (i, p) in self.parent.iter_mut().enumerate() {
            *p = i as u32;
        }
        self.size.fill(1);
    }

    /// Collects the members of the component rooted at `root`.
    fn members(&mut self, root: u32) -> Vec<Process> {
        (0..self.placement.instance().n())
            .filter(|&p| {
                let mut r = p;
                while self.parent[r as usize] != r {
                    r = self.parent[r as usize];
                }
                r == root
            })
            .map(Process)
            .collect()
    }
}

impl OnlineAlgorithm for ComponentSweep {
    fn placement(&self) -> &Placement {
        &self.placement
    }

    fn placement_mut(&mut self) -> &mut Placement {
        &mut self.placement
    }

    fn serve(&mut self, request: Edge) -> u64 {
        let (u, v) = self.placement.instance().endpoints(request);
        let ru = self.find(u.0);
        let rv = self.find(v.0);
        if ru == rv {
            return 0;
        }
        if self.size[ru as usize] + self.size[rv as usize] > self.capacity {
            // New phase: forget history.
            self.reset_components();
            return 0;
        }
        // Union by size; migrate the smaller component to the larger's
        // server if that keeps the load within 2k.
        let (big, small) = if self.size[ru as usize] >= self.size[rv as usize] {
            (ru, rv)
        } else {
            (rv, ru)
        };
        let target = self.placement.server(Process(big));
        let movers = self.members(small);
        let incoming = movers
            .iter()
            .filter(|&&p| self.placement.server(p) != target)
            .count() as u32;
        if self.placement.load(target) + incoming > self.load_bound() {
            // Would overflow even the augmented capacity: give up on
            // this union (still merge bookkeeping so the pair stops
            // triggering).
            self.parent[small as usize] = big;
            self.size[big as usize] += self.size[small as usize];
            return 0;
        }
        self.parent[small as usize] = big;
        self.size[big as usize] += self.size[small as usize];
        let mut moved = 0;
        for p in movers {
            if self.placement.migrate(p, target) {
                moved += 1;
            }
        }
        moved
    }

    fn name(&self) -> &'static str {
        "component-sweep"
    }

    fn export_state(&self) -> Option<Value> {
        Some(Value::Obj(vec![
            ("placement".into(), self.placement.to_value()),
            ("parent".into(), self.parent.to_value()),
            ("size".into(), self.size.to_value()),
        ]))
    }

    fn restore_state(&mut self, state: &Value) -> Result<(), DeError> {
        let placement = placement_field(state, self.placement.instance())?;
        let parent = <Vec<u32> as Deserialize>::from_value(state.get_field("parent")?)?;
        let size = <Vec<u32> as Deserialize>::from_value(state.get_field("size")?)?;
        let n = self.parent.len();
        if parent.len() != n || size.len() != n {
            return Err(DeError(format!(
                "union-find arity {}/{} != {n}",
                parent.len(),
                size.len()
            )));
        }
        if let Some(&p) = parent.iter().find(|&&p| p as usize >= n) {
            return Err(DeError(format!("parent {p} out of range 0..{n}")));
        }
        self.placement = placement;
        self.parent = parent;
        self.size = size;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdbp_model::workload::{self};
    use rdbp_model::{run, run_trace, AuditLevel};

    fn inst() -> RingInstance {
        RingInstance::packed(3, 4)
    }

    #[test]
    fn never_move_costs_cut_weight_only() {
        let mut alg = NeverMove::new(&inst());
        let mut w = workload::Sequential::new();
        let report = run(&mut alg, &mut w, 24, AuditLevel::Full { load_limit: 4 });
        assert_eq!(report.ledger.communication, 6); // 3 cuts × 2 laps
        assert_eq!(report.ledger.migration, 0);
    }

    #[test]
    fn never_move_snapshot_is_empty() {
        let alg = NeverMove::new(&inst());
        assert_eq!(alg.export_state(), Some(Value::Obj(Vec::new())));
    }

    #[test]
    fn greedy_swap_collocates_requested_pair() {
        let i = inst();
        let mut alg = GreedySwap::new(&i);
        let r1 = run_trace(&mut alg, &[Edge(3)], AuditLevel::Full { load_limit: 4 });
        assert_eq!(r1.ledger.communication, 1);
        assert_eq!(r1.ledger.migration, 2);
        // Pair now collocated: the repeat is free.
        let r2 = run_trace(&mut alg, &[Edge(3)], AuditLevel::Full { load_limit: 4 });
        assert_eq!(r2.ledger.total(), 0);
    }

    #[test]
    fn greedy_swap_preserves_loads_exactly() {
        let i = inst();
        let mut alg = GreedySwap::new(&i);
        let mut w = workload::UniformRandom::new(5);
        let report = run(&mut alg, &mut w, 2000, AuditLevel::Full { load_limit: 4 });
        assert_eq!(report.capacity_violations, 0);
        assert_eq!(report.max_load_seen, 4);
    }

    #[test]
    fn greedy_swap_thrashes_under_chaser() {
        let i = inst();
        let mut alg = GreedySwap::new(&i);
        let mut w = workload::CutChaser::new();
        let steps = 600;
        let report = run(&mut alg, &mut w, steps, AuditLevel::None);
        // Every chased request costs comm 1 + 2 migrations.
        assert!(
            report.ledger.total() >= 2 * steps,
            "chaser should thrash greedy-swap, cost {}",
            report.ledger.total()
        );
    }

    #[test]
    fn component_sweep_respects_augmented_capacity() {
        let i = inst();
        let mut alg = ComponentSweep::new(&i);
        let bound = alg.load_bound();
        let mut w = workload::UniformRandom::new(7);
        let report = run(
            &mut alg,
            &mut w,
            3000,
            AuditLevel::Full { load_limit: bound },
        );
        assert_eq!(report.capacity_violations, 0);
    }

    #[test]
    fn component_sweep_merges_and_resets() {
        let i = RingInstance::packed(2, 3); // n=6, k=3
        let mut alg = ComponentSweep::new(&i);
        // Join 0-1-2 into one component (requests on uncut edges are
        // free but still merge components).
        let _ = run_trace(
            &mut alg,
            &[Edge(0), Edge(1)],
            AuditLevel::Full { load_limit: 6 },
        );
        // Component {0,1,2} has size 3 = k; requesting edge 2 would make
        // 4 > k → reset, no migration.
        let r = run_trace(&mut alg, &[Edge(2)], AuditLevel::Full { load_limit: 6 });
        assert_eq!(r.ledger.migration, 0);
        assert_eq!(r.ledger.communication, 1);
    }

    #[test]
    fn baselines_expose_names() {
        let i = inst();
        assert_eq!(NeverMove::new(&i).name(), "never-move");
        assert_eq!(GreedySwap::new(&i).name(), "greedy-swap");
        assert_eq!(ComponentSweep::new(&i).name(), "component-sweep");
    }
}
