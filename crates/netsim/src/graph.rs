//! Undirected graph topology: the static communication structure `G`.
//!
//! The paper models the system as a connected undirected graph over `N`
//! nodes where every send is a local broadcast to all graph neighbors.
//! [`Graph`] is an immutable adjacency-list representation with the analysis
//! helpers the protocols and experiments need: BFS levels, diameter,
//! connectivity under node removal, and edge enumeration.

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Identifier of a node in a [`Graph`], a dense index in `0..n`.
///
/// The paper gives every node a unique `log N`-bit id; we use the dense index
/// itself as that id (the root is conventionally node 0 but any index works).
///
/// # Examples
///
/// ```
/// use netsim::NodeId;
/// let v = NodeId(3);
/// assert_eq!(v.index(), 3);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Returns the dense index of this node as a `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

/// An undirected edge, stored with endpoints in ascending order.
///
/// The paper's failure metric `f` counts *edges incident to failed nodes*;
/// [`Edge`] is the unit of that accounting.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Edge {
    a: NodeId,
    b: NodeId,
}

impl Edge {
    /// Creates an edge between `a` and `b`, normalizing endpoint order.
    ///
    /// # Panics
    ///
    /// Panics if `a == b` (self-loops are not part of the model).
    pub fn new(a: NodeId, b: NodeId) -> Self {
        assert_ne!(a, b, "self-loop edges are not allowed");
        if a <= b {
            Edge { a, b }
        } else {
            Edge { a: b, b: a }
        }
    }

    /// The smaller endpoint.
    pub fn lo(self) -> NodeId {
        self.a
    }

    /// The larger endpoint.
    pub fn hi(self) -> NodeId {
        self.b
    }

    /// Returns true iff `v` is one of the endpoints.
    pub fn touches(self, v: NodeId) -> bool {
        self.a == v || self.b == v
    }
}

/// Error returned by [`Graph::new`] when the edge list is invalid.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GraphError {
    /// An edge referenced a node index `>= n`.
    EdgeOutOfRange {
        /// The offending edge endpoints.
        edge: (u32, u32),
        /// The number of nodes in the graph.
        n: usize,
    },
    /// The same edge appeared twice in the input.
    DuplicateEdge {
        /// The duplicated edge endpoints (normalized).
        edge: (u32, u32),
    },
    /// A self-loop `(v, v)` appeared in the input.
    SelfLoop {
        /// The node with the self-loop.
        node: u32,
    },
    /// The graph must have at least one node.
    Empty,
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::EdgeOutOfRange { edge, n } => {
                write!(f, "edge ({}, {}) out of range for {} nodes", edge.0, edge.1, n)
            }
            GraphError::DuplicateEdge { edge } => {
                write!(f, "duplicate edge ({}, {})", edge.0, edge.1)
            }
            GraphError::SelfLoop { node } => write!(f, "self-loop at node {node}"),
            GraphError::Empty => write!(f, "graph must have at least one node"),
        }
    }
}

impl std::error::Error for GraphError {}

/// Immutable undirected graph in compressed sparse row (CSR) form.
///
/// Adjacency is stored as one flat `targets` array sliced by per-node
/// `offsets`, so the engine's delivery loop walks a contiguous slice with
/// no per-node allocation or pointer chasing. [`Graph::neighbors`] still
/// returns a sorted `&[NodeId]`, so callers are unaffected by the layout.
/// The arrays are shared: a clone bumps a reference count instead of
/// copying them, so each engine over the same topology costs nothing.
///
/// # Examples
///
/// ```
/// use netsim::{Graph, NodeId};
/// // A path 0 - 1 - 2.
/// let g = Graph::new(3, &[(0, 1), (1, 2)])?;
/// assert_eq!(g.len(), 3);
/// assert_eq!(g.diameter(), 2);
/// assert!(g.is_connected());
/// assert_eq!(g.neighbors(NodeId(1)), &[NodeId(0), NodeId(2)]);
/// # Ok::<(), netsim::GraphError>(())
/// ```
#[derive(Clone, Debug)]
pub struct Graph {
    csr: Arc<Csr>,
    /// `d`, filled by the first [`Graph::diameter`] call; clones carry it.
    diameter: OnceLock<u32>,
}

/// The arrays of a [`Graph`], built once and shared by its clones.
#[derive(Debug, PartialEq, Eq)]
struct Csr {
    /// `offsets[v]..offsets[v + 1]` indexes `targets`; length `n + 1`.
    offsets: Vec<u32>,
    /// Concatenated sorted neighbor lists.
    targets: Vec<NodeId>,
    edges: Vec<Edge>,
}

/// Equality of the topology: the cached diameter is a function of it, so
/// a copy that has computed `d` equals one that has not.
impl PartialEq for Graph {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.csr, &other.csr) || self.csr == other.csr
    }
}

impl Eq for Graph {}

impl Graph {
    /// Builds a graph over `n` nodes from an edge list.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError`] if `n == 0`, any endpoint is out of range, an
    /// edge is duplicated, or a self-loop is present.
    pub fn new(n: usize, edges: &[(u32, u32)]) -> Result<Self, GraphError> {
        if n == 0 {
            return Err(GraphError::Empty);
        }
        let mut list = Vec::with_capacity(edges.len());
        for &(a, b) in edges {
            if a == b {
                return Err(GraphError::SelfLoop { node: a });
            }
            if a as usize >= n || b as usize >= n {
                return Err(GraphError::EdgeOutOfRange { edge: (a, b), n });
            }
            let e = Edge::new(NodeId(a), NodeId(b));
            list.push(e);
        }
        list.sort_unstable();
        for w in list.windows(2) {
            if w[0] == w[1] {
                return Err(GraphError::DuplicateEdge { edge: (w[0].lo().0, w[0].hi().0) });
            }
        }
        // CSR build: count degrees, prefix-sum into offsets, then scatter.
        let mut offsets = vec![0u32; n + 1];
        for &e in &list {
            offsets[e.lo().index() + 1] += 1;
            offsets[e.hi().index() + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut targets = vec![NodeId(0); 2 * list.len()];
        let mut cursor = offsets.clone();
        for &e in &list {
            targets[cursor[e.lo().index()] as usize] = e.hi();
            cursor[e.lo().index()] += 1;
            targets[cursor[e.hi().index()] as usize] = e.lo();
            cursor[e.hi().index()] += 1;
        }
        for i in 0..n {
            targets[offsets[i] as usize..offsets[i + 1] as usize].sort_unstable();
        }
        Ok(Graph {
            csr: Arc::new(Csr { offsets, targets, edges: list }),
            diameter: OnceLock::new(),
        })
    }

    /// Number of nodes `N`.
    pub fn len(&self) -> usize {
        self.csr.offsets.len() - 1
    }

    /// Returns true iff the graph has no nodes (never true for a constructed
    /// graph; present for API completeness).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.csr.edges.len()
    }

    /// All edges in normalized ascending order.
    pub fn edges(&self) -> &[Edge] {
        &self.csr.edges
    }

    /// A copy of this graph with the edge `(a, b)` added. The graph is
    /// immutable (CSR), so this rebuilds from the edge list; use it for
    /// offline perturbations (adversary mining), not per-round work.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError`] if the edge is a self-loop, out of range,
    /// or already present.
    pub fn with_edge(&self, a: NodeId, b: NodeId) -> Result<Graph, GraphError> {
        let mut list: Vec<(u32, u32)> =
            self.csr.edges.iter().map(|e| (e.lo().0, e.hi().0)).collect();
        list.push((a.0, b.0));
        Graph::new(self.len(), &list)
    }

    /// A copy of this graph with the edge `(a, b)` removed, or `None`
    /// when the edge is not present. Like [`Graph::with_edge`], this
    /// rebuilds the CSR form and is meant for offline perturbations. The
    /// result may be disconnected — callers that need connectivity check
    /// [`Graph::is_connected`] themselves.
    pub fn without_edge(&self, a: NodeId, b: NodeId) -> Option<Graph> {
        if !self.has_edge(a, b) {
            return None;
        }
        let gone = Edge::new(a, b);
        let list: Vec<(u32, u32)> =
            self.csr.edges.iter().filter(|&&e| e != gone).map(|e| (e.lo().0, e.hi().0)).collect();
        Some(Graph::new(self.len(), &list).expect("removing an edge keeps the list valid"))
    }

    /// Neighbors of `v` in ascending order.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        let (i, csr) = (v.index(), &*self.csr);
        &csr.targets[csr.offsets[i] as usize..csr.offsets[i + 1] as usize]
    }

    /// Degree of `v`.
    pub fn degree(&self, v: NodeId) -> usize {
        self.neighbors(v).len()
    }

    /// Returns true iff `a` and `b` are adjacent.
    pub fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Iterator over all node ids `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.len() as u32).map(NodeId)
    }

    /// BFS distances from `src`; `None` for unreachable nodes.
    pub fn bfs_distances(&self, src: NodeId) -> Vec<Option<u32>> {
        self.bfs_distances_avoiding(src, &[])
    }

    /// BFS distances from `src` in the graph with `removed` nodes deleted.
    ///
    /// Used to analyze `H` — the live residual graph after failures — whose
    /// diameter the model assumes stays within `c * d`.
    pub fn bfs_distances_avoiding(&self, src: NodeId, removed: &[NodeId]) -> Vec<Option<u32>> {
        let n = self.len();
        let mut dead = vec![false; n];
        for &r in removed {
            dead[r.index()] = true;
        }
        let mut dist = vec![None; n];
        if dead[src.index()] {
            return dist;
        }
        let mut q = VecDeque::new();
        dist[src.index()] = Some(0);
        q.push_back(src);
        while let Some(u) = q.pop_front() {
            let du = dist[u.index()].expect("queued nodes have distances");
            for &w in self.neighbors(u) {
                if !dead[w.index()] && dist[w.index()].is_none() {
                    dist[w.index()] = Some(du + 1);
                    q.push_back(w);
                }
            }
        }
        dist
    }

    /// Diameter `d` of the graph: the largest distance between two nodes.
    ///
    /// The protocols take `d` as a known model parameter; the experiment
    /// harness computes it from the topology with this method. The first
    /// call computes it exactly (see [`Graph::residual_diameter`] for the
    /// algorithm) and later calls, on this graph or a clone of it, return
    /// the cached value.
    ///
    /// # Panics
    ///
    /// Panics if the graph is disconnected (diameter is undefined there),
    /// on every call.
    pub fn diameter(&self) -> u32 {
        *self.diameter.get_or_init(|| {
            assert!(self.is_connected(), "diameter undefined on disconnected graph");
            self.component_diameter(NodeId(0), &[])
        })
    }

    /// Records `d` for a family whose diameter has a closed form, so the
    /// first [`Graph::diameter`] call searches nothing. On the
    /// vertex-transitive families (cycle, torus, hypercube) every node has
    /// the same eccentricity and the exact search scans half the levels.
    pub(crate) fn with_diameter(self, d: u32) -> Graph {
        let _ = self.diameter.set(d);
        self
    }

    /// Diameter of the residual graph with `removed` nodes deleted,
    /// restricted to the component containing `root`.
    ///
    /// Returns `None` if `root` itself was removed. This is the quantity the
    /// model bounds by `c * d`.
    ///
    /// The value is exact. It is computed by iFUB (Crescenzi et al., "On
    /// computing the diameter of real-world undirected graphs", TCS 2013),
    /// which scans the BFS levels of a central node from the deepest up
    /// and stops once no pair left can beat the largest eccentricity seen.
    /// Each level's eccentricities come from 64-source BFS passes. Where
    /// every node has the same eccentricity (hypercube, torus) the scan
    /// covers half the levels, so those graphs cost far more than paths,
    /// grids or random graphs of the same size.
    pub fn residual_diameter(&self, root: NodeId, removed: &[NodeId]) -> Option<u32> {
        (!removed.contains(&root)).then(|| self.component_diameter(root, removed))
    }

    /// iFUB over the component of `start` in the graph without `removed`.
    fn component_diameter(&self, start: NodeId, removed: &[NodeId]) -> u32 {
        let mut bfs = Bfs::new(self, removed);
        let mut sw = Sweeps { far: vec![0; self.len()], order: Vec::new(), starts: Vec::new() };
        // Every eccentricity is a lower bound on the diameter and twice
        // any eccentricity an upper bound.
        let mut lb = sw.sweep(&mut bfs, start);
        let mut ub = 2 * lb;
        // Look for a centre, whose levels are few and whose deepest levels
        // are small: sweep from a node farthest from the last source, then
        // from the node whose largest distance to the sources so far is
        // least. Ties go to the lowest id, so the choice is reproducible.
        for _ in 0..CENTRE_ROUNDS {
            if lb == ub {
                return lb;
            }
            let far_end = *sw.order.last().expect("a sweep reaches its source");
            lb = lb.max(sw.sweep(&mut bfs, far_end));
            // Every sweep from inside the component visits all of it.
            let centre = *sw
                .order
                .iter()
                .min_by_key(|v| (sw.far[v.index()], **v))
                .expect("a sweep reaches its source");
            let ecc = sw.sweep(&mut bfs, centre);
            lb = lb.max(ecc);
            ub = ub.min(2 * ecc);
        }
        // Once every level deeper than `k` is scanned, a pair the scan has
        // not covered lies within `k` of the centre at both ends, so at
        // most `2k` apart.
        let mut k = (sw.starts.len() - 1) as u32;
        while lb < ub && lb < 2 * k {
            for sources in sw.level(k).chunks(64) {
                lb = lb.max(bfs.pass(sources, |_, _| {}));
            }
            k -= 1;
        }
        lb
    }

    /// Returns true iff the graph is connected.
    pub fn is_connected(&self) -> bool {
        self.bfs_distances(NodeId(0)).iter().all(Option::is_some)
    }

    /// Nodes reachable from `root` after deleting `removed` nodes, in
    /// ascending order. The paper treats nodes disconnected from the root as
    /// failed; this computes the surviving set `s1`'s node support.
    pub fn reachable_from(&self, root: NodeId, removed: &[NodeId]) -> Vec<NodeId> {
        self.bfs_distances_avoiding(root, removed)
            .iter()
            .enumerate()
            .filter_map(|(i, d)| d.map(|_| NodeId(i as u32)))
            .collect()
    }

    /// Renders the graph in Graphviz DOT format, optionally highlighting
    /// a set of nodes (e.g. crashed ones are drawn filled red).
    ///
    /// # Examples
    ///
    /// ```
    /// use netsim::{topology, NodeId};
    /// let g = topology::path(3);
    /// let dot = g.to_dot("p3", &[NodeId(1)]);
    /// assert!(dot.contains("graph p3 {"));
    /// assert!(dot.contains("1 [style=filled, fillcolor=red]"));
    /// assert!(dot.contains("0 -- 1;"));
    /// ```
    pub fn to_dot(&self, name: &str, highlight: &[NodeId]) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "graph {name} {{");
        for &h in highlight {
            let _ = writeln!(out, "  {} [style=filled, fillcolor=red];", h.0);
        }
        for e in &self.csr.edges {
            let _ = writeln!(out, "  {} -- {};", e.lo().0, e.hi().0);
        }
        out.push_str("}\n");
        out
    }

    /// Edges incident to any node in `nodes` (the paper's failed-edge count
    /// for a given failed-node set).
    pub fn incident_edge_count(&self, nodes: &[NodeId]) -> usize {
        let mut dead = vec![false; self.len()];
        for &v in nodes {
            dead[v.index()] = true;
        }
        self.csr.edges.iter().filter(|e| dead[e.lo().index()] || dead[e.hi().index()]).count()
    }
}

/// Centre-finding sweep rounds before the iFUB level scan. On a grid, a
/// midpoint of one double sweep can be a corner; the second round corrects
/// it.
const CENTRE_ROUNDS: usize = 3;

/// Breadth-first search over a graph with some nodes deleted, from up to
/// 64 sources in one pass: bit `j` of a node's word records that source
/// `j` has reached it (multi-source BFS, Then et al., VLDB 2015). A pass
/// visits only the nodes some source reaches at each depth, so one
/// source costs no more than a plain BFS, and 64 cost far less than 64
/// BFSs. The buffers are reused from pass to pass.
struct Bfs<'g> {
    g: &'g Graph,
    /// Sources that have reached each node. Deleted nodes have every bit
    /// set, so no pass enters them.
    seen: Vec<u64>,
    /// Sources that first reached each node at the current depth.
    fresh: Vec<u64>,
    /// Sources that first reach each node at the next depth.
    next: Vec<u64>,
    /// Nodes with `fresh` bits; nodes with `next` bits.
    frontier: Vec<NodeId>,
    upcoming: Vec<NodeId>,
    /// Live nodes the current pass has reached, so `seen` can be cleared.
    touched: Vec<NodeId>,
}

impl<'g> Bfs<'g> {
    fn new(g: &'g Graph, removed: &[NodeId]) -> Self {
        let mut seen = vec![0; g.len()];
        for &r in removed {
            seen[r.index()] = u64::MAX;
        }
        Bfs {
            g,
            seen,
            fresh: vec![0; g.len()],
            next: vec![0; g.len()],
            frontier: Vec::new(),
            upcoming: Vec::new(),
            touched: Vec::new(),
        }
    }

    /// Searches from `sources` (at most 64 distinct live nodes) at once and
    /// returns the largest eccentricity among them. `level(depth, nodes)`
    /// sees, for each depth from 0, the nodes some source first reaches
    /// at that depth.
    fn pass(&mut self, sources: &[NodeId], mut level: impl FnMut(u32, &[NodeId])) -> u32 {
        assert!(sources.len() <= 64, "a pass carries at most 64 sources");
        for (j, &s) in sources.iter().enumerate() {
            self.seen[s.index()] = 1 << j;
            self.fresh[s.index()] = 1 << j;
        }
        self.frontier.extend_from_slice(sources);
        self.touched.extend_from_slice(sources);
        let mut depth = 0;
        loop {
            level(depth, &self.frontier);
            for &v in &self.frontier {
                let bits = std::mem::take(&mut self.fresh[v.index()]);
                for &w in self.g.neighbors(v) {
                    let w_seen = self.seen[w.index()];
                    let new = bits & !w_seen;
                    if new == 0 {
                        continue;
                    }
                    if w_seen == 0 {
                        self.touched.push(w);
                    }
                    if self.next[w.index()] == 0 {
                        self.upcoming.push(w);
                    }
                    self.seen[w.index()] = w_seen | new;
                    self.next[w.index()] |= new;
                }
            }
            if self.upcoming.is_empty() {
                break;
            }
            std::mem::swap(&mut self.fresh, &mut self.next);
            std::mem::swap(&mut self.frontier, &mut self.upcoming);
            self.upcoming.clear();
            depth += 1;
        }
        self.frontier.clear();
        for v in self.touched.drain(..) {
            self.seen[v.index()] = 0;
        }
        depth
    }
}

/// The levels of the last single-source sweep, and for every node its
/// largest distance from any source swept so far (a lower bound on its
/// eccentricity).
struct Sweeps {
    far: Vec<u32>,
    /// The last sweep's nodes in BFS order; depth `k` starts at
    /// `order[starts[k]]`.
    order: Vec<NodeId>,
    starts: Vec<usize>,
}

impl Sweeps {
    /// A BFS from `s`; returns its eccentricity.
    fn sweep(&mut self, bfs: &mut Bfs<'_>, s: NodeId) -> u32 {
        let Sweeps { far, order, starts } = self;
        order.clear();
        starts.clear();
        bfs.pass(&[s], |depth, nodes| {
            starts.push(order.len());
            order.extend_from_slice(nodes);
            for v in nodes {
                far[v.index()] = far[v.index()].max(depth);
            }
        })
    }

    /// The nodes at distance `depth` from the last sweep's source.
    fn level(&self, depth: u32) -> &[NodeId] {
        let k = depth as usize;
        &self.order[self.starts[k]..self.starts.get(k + 1).copied().unwrap_or(self.order.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(n: usize) -> Graph {
        let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        Graph::new(n, &edges).unwrap()
    }

    #[test]
    fn edge_normalizes_order() {
        let e = Edge::new(NodeId(5), NodeId(2));
        assert_eq!(e.lo(), NodeId(2));
        assert_eq!(e.hi(), NodeId(5));
        assert!(e.touches(NodeId(5)));
        assert!(!e.touches(NodeId(3)));
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn edge_rejects_self_loop() {
        let _ = Edge::new(NodeId(1), NodeId(1));
    }

    #[test]
    fn new_rejects_bad_inputs() {
        assert_eq!(Graph::new(0, &[]), Err(GraphError::Empty));
        assert!(matches!(Graph::new(2, &[(0, 2)]), Err(GraphError::EdgeOutOfRange { .. })));
        assert!(matches!(Graph::new(2, &[(0, 0)]), Err(GraphError::SelfLoop { node: 0 })));
        assert!(matches!(Graph::new(3, &[(0, 1), (1, 0)]), Err(GraphError::DuplicateEdge { .. })));
    }

    #[test]
    fn adjacency_is_sorted_and_symmetric() {
        let g = Graph::new(4, &[(2, 0), (3, 0), (0, 1)]).unwrap();
        assert_eq!(g.neighbors(NodeId(0)), &[NodeId(1), NodeId(2), NodeId(3)]);
        assert!(g.has_edge(NodeId(3), NodeId(0)));
        assert!(!g.has_edge(NodeId(1), NodeId(2)));
        assert_eq!(g.degree(NodeId(0)), 3);
        assert_eq!(g.degree(NodeId(1)), 1);
    }

    #[test]
    fn path_diameter_and_connectivity() {
        let g = path(5);
        assert_eq!(g.diameter(), 4);
        assert!(g.is_connected());
    }

    #[test]
    fn disconnected_detection() {
        let g = Graph::new(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(!g.is_connected());
        let d = g.bfs_distances(NodeId(0));
        assert_eq!(d[1], Some(1));
        assert_eq!(d[2], None);
    }

    #[test]
    fn bfs_avoiding_cuts_paths() {
        let g = path(5);
        let d = g.bfs_distances_avoiding(NodeId(0), &[NodeId(2)]);
        assert_eq!(d[1], Some(1));
        assert_eq!(d[3], None);
        assert_eq!(d[4], None);
    }

    #[test]
    fn reachable_from_excludes_cut_side() {
        let g = path(5);
        let r = g.reachable_from(NodeId(0), &[NodeId(2)]);
        assert_eq!(r, vec![NodeId(0), NodeId(1)]);
    }

    #[test]
    fn residual_diameter_on_cycle() {
        // 6-cycle: removing one node turns it into a 5-path seen from root.
        let g = Graph::new(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]).unwrap();
        assert_eq!(g.diameter(), 3);
        assert_eq!(g.residual_diameter(NodeId(0), &[NodeId(3)]), Some(4));
        assert_eq!(g.residual_diameter(NodeId(0), &[NodeId(0)]), None);
    }

    #[test]
    fn incident_edge_count_matches_definition() {
        let g = Graph::new(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        assert_eq!(g.incident_edge_count(&[]), 0);
        assert_eq!(g.incident_edge_count(&[NodeId(1)]), 2);
        assert_eq!(g.incident_edge_count(&[NodeId(1), NodeId(2)]), 3);
        assert_eq!(g.incident_edge_count(&[NodeId(0), NodeId(2)]), 4);
    }

    #[test]
    fn dot_output_shape() {
        let g = Graph::new(3, &[(0, 1), (1, 2)]).unwrap();
        let dot = g.to_dot("t", &[NodeId(2)]);
        assert!(dot.starts_with("graph t {"));
        assert!(dot.ends_with("}\n"));
        assert_eq!(dot.matches(" -- ").count(), 2);
        assert_eq!(dot.matches("fillcolor=red").count(), 1);
    }

    #[test]
    fn nodes_iterates_all() {
        let g = path(3);
        let v: Vec<_> = g.nodes().collect();
        assert_eq!(v, vec![NodeId(0), NodeId(1), NodeId(2)]);
    }

    #[test]
    fn with_edge_adds_and_rejects_invalid() {
        let g = path(4); // 0-1-2-3
        let h = g.with_edge(NodeId(0), NodeId(3)).unwrap();
        assert!(h.has_edge(NodeId(0), NodeId(3)));
        assert_eq!(h.edge_count(), g.edge_count() + 1);
        assert_eq!(h.diameter(), 2);
        // Original untouched (immutable rebuild).
        assert!(!g.has_edge(NodeId(0), NodeId(3)));
        assert!(matches!(g.with_edge(NodeId(1), NodeId(2)), Err(GraphError::DuplicateEdge { .. })));
        assert!(matches!(g.with_edge(NodeId(1), NodeId(1)), Err(GraphError::SelfLoop { .. })));
        assert!(matches!(
            g.with_edge(NodeId(0), NodeId(9)),
            Err(GraphError::EdgeOutOfRange { .. })
        ));
    }

    #[test]
    fn without_edge_removes_or_declines() {
        let g = Graph::new(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let h = g.without_edge(NodeId(2), NodeId(3)).unwrap();
        assert!(!h.has_edge(NodeId(2), NodeId(3)));
        assert_eq!(h.edge_count(), 3);
        assert!(h.is_connected());
        assert!(g.without_edge(NodeId(0), NodeId(2)).is_none());
        // Removal may disconnect; the helper leaves that to the caller.
        let p = path(3);
        let cut = p.without_edge(NodeId(0), NodeId(1)).unwrap();
        assert!(!cut.is_connected());
    }
}
