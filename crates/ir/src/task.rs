//! Coarse-grain task graphs.
//!
//! A [`TaskGraph`] is a directed acyclic graph of tasks with data-volume
//! annotated edges. It is the granularity at which the paper's Section 4.2
//! flows (SOS, Beck, Yen–Wolf) allocate processing elements and map work
//! onto them, and the granularity at which HW/SW partitioners decide what
//! moves across the boundary.
//!
//! Each [`Task`] carries the attributes the paper's Section 3.3 lists as
//! partitioning considerations:
//!
//! * software and hardware execution costs (*performance requirements*),
//! * a hardware area cost (*implementation cost*),
//! * a parallelism affinity in `[0, 1]` (*nature of the computation*),
//! * a modifiability preference in `[0, 1]` (*modifiability*).
//!
//! *Concurrency* and *communication* are properties of the graph (edge data
//! volumes and the precedence structure), not of single tasks.

use crate::error::IrError;

/// Identifier of a task within one [`TaskGraph`].
///
/// Ids are dense indices assigned in insertion order; they are only
/// meaningful relative to the graph that issued them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub(crate) u32);

impl TaskId {
    /// Creates an id from a dense index. Ids are only meaningful for the
    /// graph that has at least `index + 1` tasks.
    #[must_use]
    pub fn from_index(index: usize) -> Self {
        TaskId(index as u32)
    }

    /// Returns the dense index of this task.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for TaskId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// One coarse-grain unit of work.
#[derive(Debug, Clone, PartialEq)]
pub struct Task {
    name: String,
    sw_cycles: u64,
    hw_cycles: u64,
    hw_area: f64,
    parallelism: f64,
    modifiability: f64,
    kernel: Option<String>,
}

impl Task {
    /// Creates a task with the given name and software cost in cycles on
    /// the reference processor.
    ///
    /// Hardware cost defaults to `sw_cycles / 10` (a typical speedup for a
    /// dedicated datapath), hardware area to `sw_cycles as f64 / 100.0`,
    /// and the qualitative affinities to neutral `0.5`. Use the `with_*`
    /// methods to refine.
    #[must_use]
    pub fn new(name: impl Into<String>, sw_cycles: u64) -> Self {
        Task {
            name: name.into(),
            sw_cycles,
            hw_cycles: (sw_cycles / 10).max(1),
            hw_area: sw_cycles as f64 / 100.0,
            parallelism: 0.5,
            modifiability: 0.5,
            kernel: None,
        }
    }

    /// Sets the hardware latency in cycles.
    #[must_use]
    pub fn with_hw_cycles(mut self, hw_cycles: u64) -> Self {
        self.hw_cycles = hw_cycles.max(1);
        self
    }

    /// Sets the hardware area cost (abstract area units).
    #[must_use]
    pub fn with_hw_area(mut self, hw_area: f64) -> Self {
        self.hw_area = hw_area;
        self
    }

    /// Sets the parallelism affinity in `[0, 1]`; values near 1 mark
    /// computations that "benefit from a high degree of parallelism" and
    /// are therefore "better suited for hardware" (paper Section 3.3).
    ///
    /// The value is clamped to `[0, 1]`.
    #[must_use]
    pub fn with_parallelism(mut self, parallelism: f64) -> Self {
        self.parallelism = parallelism.clamp(0.0, 1.0);
        self
    }

    /// Sets the modifiability preference in `[0, 1]`; values near 1 mark
    /// functions whose "algorithm can be easily changed" and which
    /// therefore prefer a software implementation (paper Section 3.3).
    ///
    /// The value is clamped to `[0, 1]`.
    #[must_use]
    pub fn with_modifiability(mut self, modifiability: f64) -> Self {
        self.modifiability = modifiability.clamp(0.0, 1.0);
        self
    }

    /// Associates a named CDFG kernel with this task, connecting the
    /// coarse-grain and operation-level views.
    #[must_use]
    pub fn with_kernel(mut self, kernel: impl Into<String>) -> Self {
        self.kernel = Some(kernel.into());
        self
    }

    /// Task name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Software execution cost in reference-processor cycles.
    #[must_use]
    pub fn sw_cycles(&self) -> u64 {
        self.sw_cycles
    }

    /// Hardware execution latency in cycles.
    #[must_use]
    pub fn hw_cycles(&self) -> u64 {
        self.hw_cycles
    }

    /// Hardware area cost in abstract area units.
    #[must_use]
    pub fn hw_area(&self) -> f64 {
        self.hw_area
    }

    /// Parallelism affinity in `[0, 1]`.
    #[must_use]
    pub fn parallelism(&self) -> f64 {
        self.parallelism
    }

    /// Modifiability preference in `[0, 1]`.
    #[must_use]
    pub fn modifiability(&self) -> f64 {
        self.modifiability
    }

    /// Name of the associated CDFG kernel, if any.
    #[must_use]
    pub fn kernel(&self) -> Option<&str> {
        self.kernel.as_deref()
    }
}

/// A data dependence between two tasks carrying `bytes` of data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataEdge {
    /// Producer task.
    pub src: TaskId,
    /// Consumer task.
    pub dst: TaskId,
    /// Data volume transferred, in bytes.
    pub bytes: u64,
}

/// Precomputed structural adjacency for a [`TaskGraph`]: CSR-style
/// incoming/outgoing edge indices (per-endpoint insertion order is
/// preserved, so iteration matches a scan over the edge list) plus the
/// memoized topological order. Built lazily on first use and discarded by
/// structural mutation, so repeated traversals — the partition
/// evaluator's inner loop — stop paying a full edge scan per task.
#[derive(Debug, Clone)]
struct GraphIndex {
    /// Offsets into `in_edges`, length `n + 1`.
    in_start: Vec<u32>,
    /// Edge indices grouped by destination task.
    in_edges: Vec<u32>,
    /// Offsets into `out_edges`, length `n + 1`.
    out_start: Vec<u32>,
    /// Edge indices grouped by source task.
    out_edges: Vec<u32>,
    /// Topological order, or `None` for a cyclic graph.
    topo: Option<Vec<TaskId>>,
}

impl GraphIndex {
    fn build(n: usize, edges: &[DataEdge]) -> Self {
        let mut in_start = vec![0u32; n + 1];
        let mut out_start = vec![0u32; n + 1];
        for e in edges {
            in_start[e.dst.index() + 1] += 1;
            out_start[e.src.index() + 1] += 1;
        }
        for i in 0..n {
            in_start[i + 1] += in_start[i];
            out_start[i + 1] += out_start[i];
        }
        let mut in_edges = vec![0u32; edges.len()];
        let mut out_edges = vec![0u32; edges.len()];
        let mut in_fill = in_start.clone();
        let mut out_fill = out_start.clone();
        for (i, e) in edges.iter().enumerate() {
            in_edges[in_fill[e.dst.index()] as usize] = i as u32;
            in_fill[e.dst.index()] += 1;
            out_edges[out_fill[e.src.index()] as usize] = i as u32;
            out_fill[e.src.index()] += 1;
        }

        // Kahn's algorithm with a LIFO ready stack; successors are visited
        // in edge insertion order, so the resulting order is identical to
        // the pre-index implementation.
        let mut indegree: Vec<u32> = (0..n).map(|i| in_start[i + 1] - in_start[i]).collect();
        let mut ready: Vec<TaskId> = (0..n as u32)
            .map(TaskId)
            .filter(|id| indegree[id.index()] == 0)
            .collect();
        let mut order = Vec::with_capacity(n);
        while let Some(id) = ready.pop() {
            order.push(id);
            let succs =
                &out_edges[out_start[id.index()] as usize..out_start[id.index() + 1] as usize];
            for &ei in succs {
                let succ = edges[ei as usize].dst;
                indegree[succ.index()] -= 1;
                if indegree[succ.index()] == 0 {
                    ready.push(succ);
                }
            }
        }
        let topo = (order.len() == n).then_some(order);
        GraphIndex {
            in_start,
            in_edges,
            out_start,
            out_edges,
            topo,
        }
    }
}

/// A directed acyclic graph of [`Task`]s.
///
/// # Example
///
/// ```
/// use codesign_ir::task::{Task, TaskGraph};
///
/// # fn main() -> Result<(), codesign_ir::IrError> {
/// let mut g = TaskGraph::new("pipeline");
/// let a = g.add_task(Task::new("sample", 100));
/// let b = g.add_task(Task::new("filter", 4_000).with_parallelism(0.9));
/// g.add_edge(a, b, 64)?;
/// assert_eq!(g.topological_order()?, vec![a, b]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TaskGraph {
    name: String,
    tasks: Vec<Task>,
    edges: Vec<DataEdge>,
    deadline: Option<u64>,
    period: Option<u64>,
    /// Lazily-built adjacency index; not part of the graph's value.
    index: std::sync::OnceLock<GraphIndex>,
}

impl PartialEq for TaskGraph {
    fn eq(&self, other: &Self) -> bool {
        // The adjacency cache is derived state and excluded from equality.
        self.name == other.name
            && self.tasks == other.tasks
            && self.edges == other.edges
            && self.deadline == other.deadline
            && self.period == other.period
    }
}

impl TaskGraph {
    /// Creates an empty task graph.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        TaskGraph {
            name: name.into(),
            tasks: Vec::new(),
            edges: Vec::new(),
            deadline: None,
            period: None,
            index: std::sync::OnceLock::new(),
        }
    }

    /// The adjacency index, built on first use.
    fn index(&self) -> &GraphIndex {
        self.index
            .get_or_init(|| GraphIndex::build(self.tasks.len(), &self.edges))
    }

    /// Graph name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Sets an end-to-end deadline in cycles (a *performance requirement*
    /// in the paper's Section 3.3 sense).
    pub fn set_deadline(&mut self, deadline: u64) {
        self.deadline = Some(deadline);
    }

    /// End-to-end deadline in cycles, if any.
    #[must_use]
    pub fn deadline(&self) -> Option<u64> {
        self.deadline
    }

    /// Sets the invocation period in cycles for rate-constrained systems.
    pub fn set_period(&mut self, period: u64) {
        self.period = Some(period);
    }

    /// Invocation period in cycles, if any.
    #[must_use]
    pub fn period(&self) -> Option<u64> {
        self.period
    }

    /// Adds a task and returns its id.
    pub fn add_task(&mut self, task: Task) -> TaskId {
        let id = TaskId(self.tasks.len() as u32);
        self.tasks.push(task);
        self.index.take(); // structural mutation invalidates the index
        id
    }

    /// Adds a data edge from `src` to `dst` carrying `bytes` bytes.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::UnknownNode`] if either endpoint is not a task of
    /// this graph, and [`IrError::Invalid`] for a self-edge.
    pub fn add_edge(&mut self, src: TaskId, dst: TaskId, bytes: u64) -> Result<(), IrError> {
        for id in [src, dst] {
            if id.index() >= self.tasks.len() {
                return Err(IrError::UnknownNode {
                    kind: "task graph",
                    index: id.index(),
                });
            }
        }
        if src == dst {
            return Err(IrError::Invalid {
                reason: format!("self edge on task {src}"),
            });
        }
        self.edges.push(DataEdge { src, dst, bytes });
        self.index.take(); // structural mutation invalidates the index
        Ok(())
    }

    /// Number of tasks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the graph has no tasks.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// The task with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    #[must_use]
    pub fn task(&self, id: TaskId) -> &Task {
        &self.tasks[id.index()]
    }

    /// Mutable access to the task with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    #[must_use]
    pub fn task_mut(&mut self, id: TaskId) -> &mut Task {
        &mut self.tasks[id.index()]
    }

    /// Iterates over `(id, task)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (TaskId, &Task)> {
        self.tasks
            .iter()
            .enumerate()
            .map(|(i, t)| (TaskId(i as u32), t))
    }

    /// Iterates over all task ids.
    pub fn ids(&self) -> impl Iterator<Item = TaskId> {
        (0..self.tasks.len() as u32).map(TaskId)
    }

    /// All data edges.
    #[must_use]
    pub fn edges(&self) -> &[DataEdge] {
        &self.edges
    }

    /// Edges arriving at `id`, in insertion order.
    pub fn incoming_edges(&self, id: TaskId) -> impl Iterator<Item = &DataEdge> + '_ {
        let ix = self.index();
        ix.in_edges[ix.in_start[id.index()] as usize..ix.in_start[id.index() + 1] as usize]
            .iter()
            .map(move |&ei| &self.edges[ei as usize])
    }

    /// Edges leaving `id`, in insertion order.
    pub fn outgoing_edges(&self, id: TaskId) -> impl Iterator<Item = &DataEdge> + '_ {
        let ix = self.index();
        ix.out_edges[ix.out_start[id.index()] as usize..ix.out_start[id.index() + 1] as usize]
            .iter()
            .map(move |&ei| &self.edges[ei as usize])
    }

    /// Number of edges arriving at `id`.
    #[must_use]
    pub fn in_degree(&self, id: TaskId) -> usize {
        let ix = self.index();
        (ix.in_start[id.index() + 1] - ix.in_start[id.index()]) as usize
    }

    /// Ids of the direct predecessors of `id`.
    pub fn predecessors(&self, id: TaskId) -> impl Iterator<Item = TaskId> + '_ {
        self.incoming_edges(id).map(|e| e.src)
    }

    /// Ids of the direct successors of `id`.
    pub fn successors(&self, id: TaskId) -> impl Iterator<Item = TaskId> + '_ {
        self.outgoing_edges(id).map(|e| e.dst)
    }

    /// Total bytes flowing into `id`.
    #[must_use]
    pub fn incoming_bytes(&self, id: TaskId) -> u64 {
        self.incoming_edges(id).map(|e| e.bytes).sum()
    }

    /// Total bytes flowing out of `id`.
    #[must_use]
    pub fn outgoing_bytes(&self, id: TaskId) -> u64 {
        self.outgoing_edges(id).map(|e| e.bytes).sum()
    }

    /// Returns a topological ordering of the tasks.
    ///
    /// The order is memoized together with the adjacency index, so
    /// repeated calls cost one `Vec` copy rather than a graph traversal.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::CyclicGraph`] if the graph contains a cycle.
    pub fn topological_order(&self) -> Result<Vec<TaskId>, IrError> {
        self.index()
            .topo
            .clone()
            .ok_or(IrError::CyclicGraph { kind: "task graph" })
    }

    /// The memoized topological order as a slice, without copying.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::CyclicGraph`] if the graph contains a cycle.
    pub fn topological_order_ref(&self) -> Result<&[TaskId], IrError> {
        self.index()
            .topo
            .as_deref()
            .ok_or(IrError::CyclicGraph { kind: "task graph" })
    }

    /// Validates structural invariants (acyclicity, edge endpoints).
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), IrError> {
        for e in &self.edges {
            for id in [e.src, e.dst] {
                if id.index() >= self.tasks.len() {
                    return Err(IrError::UnknownNode {
                        kind: "task graph",
                        index: id.index(),
                    });
                }
            }
        }
        self.topological_order().map(|_| ())
    }

    /// Length of the longest path under a per-task cost function, ignoring
    /// communication. This is the classic critical path used to lower-bound
    /// any schedule.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::CyclicGraph`] if the graph contains a cycle.
    pub fn critical_path(&self, cost: impl Fn(TaskId, &Task) -> u64) -> Result<u64, IrError> {
        let order = self.topological_order_ref()?;
        let mut finish = vec![0u64; self.tasks.len()];
        let mut best = 0;
        for &id in order {
            let start = self
                .predecessors(id)
                .map(|p| finish[p.index()])
                .max()
                .unwrap_or(0);
            let f = start + cost(id, self.task(id));
            finish[id.index()] = f;
            best = best.max(f);
        }
        Ok(best)
    }

    /// Bottom levels (longest path from each task to any sink, inclusive of
    /// the task itself) under a cost function. Used as the priority in list
    /// scheduling.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::CyclicGraph`] if the graph contains a cycle.
    pub fn bottom_levels(&self, cost: impl Fn(TaskId, &Task) -> u64) -> Result<Vec<u64>, IrError> {
        let order = self.topological_order_ref()?;
        let mut level = vec![0u64; self.tasks.len()];
        for &id in order.iter().rev() {
            let tail = self
                .successors(id)
                .map(|s| level[s.index()])
                .max()
                .unwrap_or(0);
            level[id.index()] = tail + cost(id, self.task(id));
        }
        Ok(level)
    }

    /// Sum of software costs over all tasks: the makespan of an entirely
    /// sequential, all-software implementation.
    #[must_use]
    pub fn total_sw_cycles(&self) -> u64 {
        self.tasks.iter().map(Task::sw_cycles).sum()
    }

    /// Sum of hardware areas over all tasks: the cost of an all-hardware
    /// implementation with no resource sharing.
    #[must_use]
    pub fn total_hw_area(&self) -> f64 {
        self.tasks.iter().map(Task::hw_area).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> (TaskGraph, [TaskId; 4]) {
        let mut g = TaskGraph::new("diamond");
        let a = g.add_task(Task::new("a", 10));
        let b = g.add_task(Task::new("b", 20));
        let c = g.add_task(Task::new("c", 30));
        let d = g.add_task(Task::new("d", 40));
        g.add_edge(a, b, 8).unwrap();
        g.add_edge(a, c, 8).unwrap();
        g.add_edge(b, d, 8).unwrap();
        g.add_edge(c, d, 8).unwrap();
        (g, [a, b, c, d])
    }

    #[test]
    fn topological_order_respects_edges() {
        let (g, ids) = diamond();
        let order = g.topological_order().unwrap();
        let pos = |id: TaskId| order.iter().position(|&x| x == id).unwrap();
        assert!(pos(ids[0]) < pos(ids[1]));
        assert!(pos(ids[0]) < pos(ids[2]));
        assert!(pos(ids[1]) < pos(ids[3]));
        assert!(pos(ids[2]) < pos(ids[3]));
    }

    #[test]
    fn cycle_is_detected() {
        let mut g = TaskGraph::new("cyclic");
        let a = g.add_task(Task::new("a", 1));
        let b = g.add_task(Task::new("b", 1));
        g.add_edge(a, b, 1).unwrap();
        g.add_edge(b, a, 1).unwrap();
        assert_eq!(
            g.topological_order(),
            Err(IrError::CyclicGraph { kind: "task graph" })
        );
        assert!(g.validate().is_err());
    }

    #[test]
    fn self_edge_rejected() {
        let mut g = TaskGraph::new("g");
        let a = g.add_task(Task::new("a", 1));
        assert!(matches!(g.add_edge(a, a, 1), Err(IrError::Invalid { .. })));
    }

    #[test]
    fn edge_to_unknown_task_rejected() {
        let mut g = TaskGraph::new("g");
        let a = g.add_task(Task::new("a", 1));
        let ghost = TaskId(17);
        assert!(matches!(
            g.add_edge(a, ghost, 1),
            Err(IrError::UnknownNode { .. })
        ));
    }

    #[test]
    fn critical_path_of_diamond() {
        let (g, _) = diamond();
        // a -> c -> d = 10 + 30 + 40 = 80 is the longest SW path.
        let cp = g.critical_path(|_, t| t.sw_cycles()).unwrap();
        assert_eq!(cp, 80);
    }

    #[test]
    fn bottom_levels_of_chain() {
        let mut g = TaskGraph::new("chain");
        let a = g.add_task(Task::new("a", 5));
        let b = g.add_task(Task::new("b", 7));
        g.add_edge(a, b, 1).unwrap();
        let bl = g.bottom_levels(|_, t| t.sw_cycles()).unwrap();
        assert_eq!(bl[a.index()], 12);
        assert_eq!(bl[b.index()], 7);
    }

    #[test]
    fn byte_accounting() {
        let (g, ids) = diamond();
        assert_eq!(g.outgoing_bytes(ids[0]), 16);
        assert_eq!(g.incoming_bytes(ids[3]), 16);
        assert_eq!(g.incoming_bytes(ids[0]), 0);
    }

    #[test]
    fn task_builder_clamps_affinities() {
        let t = Task::new("t", 100)
            .with_parallelism(2.0)
            .with_modifiability(-1.0);
        assert_eq!(t.parallelism(), 1.0);
        assert_eq!(t.modifiability(), 0.0);
    }

    #[test]
    fn totals() {
        let (g, _) = diamond();
        assert_eq!(g.total_sw_cycles(), 100);
        assert!(g.total_hw_area() > 0.0);
    }

    #[test]
    fn index_invalidated_by_mutation() {
        let mut g = TaskGraph::new("grow");
        let a = g.add_task(Task::new("a", 1));
        let b = g.add_task(Task::new("b", 1));
        assert_eq!(g.predecessors(b).count(), 0); // builds the index
        g.add_edge(a, b, 4).unwrap();
        assert_eq!(g.predecessors(b).collect::<Vec<_>>(), vec![a]);
        let c = g.add_task(Task::new("c", 1));
        g.add_edge(b, c, 4).unwrap();
        assert_eq!(g.topological_order().unwrap(), vec![a, b, c]);
        assert_eq!(g.in_degree(c), 1);
    }

    #[test]
    fn equality_ignores_index_cache() {
        let (g1, _) = diamond();
        let (g2, _) = diamond();
        let _ = g1.topological_order(); // build the cache on one side only
        assert_eq!(g1, g2);
    }

    #[test]
    fn adjacency_preserves_edge_insertion_order() {
        let mut g = TaskGraph::new("order");
        let a = g.add_task(Task::new("a", 1));
        let b = g.add_task(Task::new("b", 1));
        let c = g.add_task(Task::new("c", 1));
        let d = g.add_task(Task::new("d", 1));
        // Insert in a deliberately scrambled order.
        g.add_edge(c, d, 3).unwrap();
        g.add_edge(a, d, 1).unwrap();
        g.add_edge(b, d, 2).unwrap();
        let bytes: Vec<u64> = g.incoming_edges(d).map(|e| e.bytes).collect();
        assert_eq!(bytes, vec![3, 1, 2], "scan order = insertion order");
        assert_eq!(g.predecessors(d).collect::<Vec<_>>(), vec![c, a, b]);
    }

    #[test]
    fn deadline_and_period_roundtrip() {
        let mut g = TaskGraph::new("g");
        assert_eq!(g.deadline(), None);
        g.set_deadline(1000);
        g.set_period(2000);
        assert_eq!(g.deadline(), Some(1000));
        assert_eq!(g.period(), Some(2000));
    }
}
