//! Problem instances and modular ring arithmetic.

use serde::{Deserialize, Serialize};

/// A process `pᵢ` on the ring. Indices are always interpreted modulo
/// `n`, mirroring the paper's convention "`pᵢ` with `i ≥ n` refers to
/// process `p_{i mod n}`".
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Process(pub u32);

/// A server (the paper identifies each server with a unique *color*).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Server(pub u32);

/// Ring edge `i`, i.e. the process pair `{pᵢ, pᵢ₊₁}` (paper notation
/// `(i, i+1)`). A ring of `n` processes has exactly `n` edges.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Edge(pub u32);

/// A ring-demand instance: `n` processes on a cycle, `ℓ` servers with
/// capacity `k` each (`n ≤ ℓ·k`).
///
/// The paper's canonical setting is `n = ℓ·k` (fully packed); this type
/// permits slack because the offline comparators need it.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct RingInstance {
    n: u32,
    servers: u32,
    capacity: u32,
}

impl RingInstance {
    /// Creates an instance.
    ///
    /// # Panics
    /// Panics unless `n ≥ 3` (a cycle needs three distinct edges),
    /// `ℓ ≥ 1`, `k ≥ 1`, and `n ≤ ℓ·k`.
    #[must_use]
    pub fn new(n: u32, servers: u32, capacity: u32) -> Self {
        Self::try_new(n, servers, capacity).unwrap_or_else(|rule| panic!("{rule}"))
    }

    /// [`RingInstance::new`] without the panic: the first rule the
    /// parameters break, naming the field.
    ///
    /// # Errors
    /// Returns the broken rule.
    pub fn try_new(n: u32, servers: u32, capacity: u32) -> Result<Self, String> {
        let slots = u64::from(servers) * u64::from(capacity);
        if n < 3 {
            Err(format!("a ring needs at least 3 processes, got n = {n}"))
        } else if servers == 0 {
            Err("need at least one server, got servers = 0".into())
        } else if capacity == 0 {
            Err("need positive capacity, got capacity = 0".into())
        } else if u64::from(n) > slots {
            Err(format!("capacity infeasible: n = {n} > ℓ·k = {slots}"))
        } else {
            Ok(Self {
                n,
                servers,
                capacity,
            })
        }
    }

    /// The fully packed instance `n = ℓ·k` the paper analyses.
    ///
    /// # Panics
    /// Panics if `ℓ·k < 3` or the product overflows `u32`.
    #[must_use]
    pub fn packed(servers: u32, capacity: u32) -> Self {
        let n = servers.checked_mul(capacity).expect("ℓ·k overflows u32");
        Self::new(n, servers, capacity)
    }

    /// Number of processes (= number of ring edges).
    #[must_use]
    pub fn n(&self) -> u32 {
        self.n
    }

    /// Number of servers `ℓ`.
    #[must_use]
    pub fn servers(&self) -> u32 {
        self.servers
    }

    /// Server capacity `k`.
    #[must_use]
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Reduces an arbitrary (possibly out-of-range) index to a process.
    #[must_use]
    pub fn process(&self, i: u64) -> Process {
        Process((i % u64::from(self.n)) as u32)
    }

    /// Reduces an arbitrary index to an edge.
    #[must_use]
    pub fn edge(&self, i: u64) -> Edge {
        Edge((i % u64::from(self.n)) as u32)
    }

    /// The two endpoints of edge `e = {pₑ, pₑ₊₁}`.
    #[must_use]
    pub fn endpoints(&self, e: Edge) -> (Process, Process) {
        debug_assert!(e.0 < self.n);
        (Process(e.0), Process((e.0 + 1) % self.n))
    }

    /// Cyclic distance between two edges (number of unit moves along the
    /// ring to get from `a` to `b`, whichever direction is shorter).
    #[must_use]
    pub fn edge_distance(&self, a: Edge, b: Edge) -> u32 {
        let d = a.0.abs_diff(b.0);
        d.min(self.n - d)
    }

    /// Signed clockwise offset from edge `a` to edge `b` in `0..n`.
    #[must_use]
    pub fn clockwise_offset(&self, a: Edge, b: Edge) -> u32 {
        (b.0 + self.n - a.0) % self.n
    }

    /// Iterator over all edges of the ring.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + use<> {
        (0..self.n).map(Edge)
    }

    /// Iterator over all processes.
    pub fn processes(&self) -> impl Iterator<Item = Process> + use<> {
        (0..self.n).map(Process)
    }

    /// The wrapping segment of processes strictly between two cut edges:
    /// cutting at edges `a = (a, a+1)` and `b = (b, b+1)` with `a ≠ b`
    /// yields the slice `[a+1, b]` (paper's server-mapping convention,
    /// Section 3.1).
    #[must_use]
    pub fn slice_between(&self, a: Edge, b: Edge) -> Segment {
        let start = (a.0 + 1) % self.n;
        let len = (b.0 + self.n - a.0) % self.n;
        Segment::new(self, start, len)
    }
}

/// A contiguous wrapping segment `[start, start+len-1]` of processes on
/// the ring (the paper's "segment of length ℓ starting with pₛ").
///
/// `len == 0` is the empty segment; `len == n` is the whole ring.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct Segment {
    start: u32,
    len: u32,
    ring: u32,
}

impl Segment {
    /// Creates a segment of `len` processes starting at `start`.
    ///
    /// # Panics
    /// Panics if `start` is not a valid process or `len > n`.
    #[must_use]
    pub fn new(instance: &RingInstance, start: u32, len: u32) -> Self {
        assert!(start < instance.n(), "segment start out of range");
        assert!(len <= instance.n(), "segment longer than the ring");
        Self {
            start,
            len,
            ring: instance.n(),
        }
    }

    /// First process of the segment.
    #[must_use]
    pub fn start(&self) -> Process {
        Process(self.start)
    }

    /// Number of processes in the segment.
    #[must_use]
    pub fn len(&self) -> u32 {
        self.len
    }

    /// Whether the segment is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Last process of the segment.
    ///
    /// # Panics
    /// Panics on an empty segment.
    #[must_use]
    pub fn end(&self) -> Process {
        assert!(self.len > 0, "empty segment has no end");
        Process((self.start + self.len - 1) % self.ring)
    }

    /// Whether process `p` lies inside the segment.
    #[must_use]
    pub fn contains(&self, p: Process) -> bool {
        if self.len == 0 {
            return false;
        }
        let off = (p.0 + self.ring - self.start) % self.ring;
        off < self.len
    }

    /// Iterator over the segment's processes in ring order.
    pub fn iter(&self) -> impl Iterator<Item = Process> + use<> {
        let (start, ring) = (self.start, self.ring);
        (0..self.len).map(move |i| Process((start + i) % ring))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packed_instance_dimensions() {
        let inst = RingInstance::packed(4, 8);
        assert_eq!(inst.n(), 32);
        assert_eq!(inst.servers(), 4);
        assert_eq!(inst.capacity(), 8);
    }

    #[test]
    fn process_and_edge_wrap_modulo_n() {
        let inst = RingInstance::new(10, 2, 5);
        assert_eq!(inst.process(13), Process(3));
        assert_eq!(inst.edge(10), Edge(0));
        assert_eq!(inst.endpoints(Edge(9)), (Process(9), Process(0)));
    }

    #[test]
    fn edge_distance_is_cyclic() {
        let inst = RingInstance::new(10, 2, 5);
        assert_eq!(inst.edge_distance(Edge(1), Edge(9)), 2);
        assert_eq!(inst.edge_distance(Edge(2), Edge(7)), 5);
        assert_eq!(inst.edge_distance(Edge(4), Edge(4)), 0);
    }

    #[test]
    fn clockwise_offset_wraps() {
        let inst = RingInstance::new(8, 2, 4);
        assert_eq!(inst.clockwise_offset(Edge(6), Edge(1)), 3);
        assert_eq!(inst.clockwise_offset(Edge(1), Edge(6)), 5);
        assert_eq!(inst.clockwise_offset(Edge(3), Edge(3)), 0);
    }

    #[test]
    fn slice_between_matches_paper_convention() {
        // Cut edges (2,3) and (6,7): the slice is [3, 6].
        let inst = RingInstance::new(10, 2, 5);
        let s = inst.slice_between(Edge(2), Edge(6));
        assert_eq!(s.start(), Process(3));
        assert_eq!(s.len(), 4);
        assert_eq!(s.end(), Process(6));
    }

    #[test]
    fn slice_between_wraps_around_zero() {
        let inst = RingInstance::new(10, 2, 5);
        let s = inst.slice_between(Edge(8), Edge(1));
        assert_eq!(s.start(), Process(9));
        assert_eq!(s.len(), 3);
        let got: Vec<_> = s.iter().collect();
        assert_eq!(got, vec![Process(9), Process(0), Process(1)]);
    }

    #[test]
    fn slice_between_same_edge_is_empty() {
        let inst = RingInstance::new(10, 2, 5);
        let s = inst.slice_between(Edge(4), Edge(4));
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
    }

    #[test]
    fn segment_contains_wrapping() {
        let inst = RingInstance::new(8, 2, 4);
        let s = Segment::new(&inst, 6, 4); // {6,7,0,1}
        assert!(s.contains(Process(6)));
        assert!(s.contains(Process(0)));
        assert!(s.contains(Process(1)));
        assert!(!s.contains(Process(2)));
        assert!(!s.contains(Process(5)));
    }

    #[test]
    fn whole_ring_segment_contains_everything() {
        let inst = RingInstance::new(6, 2, 3);
        let s = Segment::new(&inst, 2, 6);
        for p in inst.processes() {
            assert!(s.contains(p));
        }
        assert_eq!(s.iter().count(), 6);
    }

    #[test]
    #[should_panic(expected = "capacity infeasible")]
    fn rejects_overfull_instance() {
        let _ = RingInstance::new(10, 3, 3);
    }

    #[test]
    #[should_panic(expected = "at least 3")]
    fn rejects_tiny_ring() {
        let _ = RingInstance::new(2, 1, 2);
    }
}
