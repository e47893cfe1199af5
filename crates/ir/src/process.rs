//! Communicating process networks.
//!
//! The paper's highest interface-abstraction level models HW/SW
//! interaction "by the process or device communication mechanism provided
//! by an operating system" using `send`, `receive`, and `wait` operations
//! (Section 3.1, Figure 3; Coumeri & Thomas \[3\]). A [`ProcessNetwork`] is
//! that view: sequential [`Process`]es whose bodies are sequences of
//! [`Action`]s, communicating over point-to-point [`Channel`]s.
//!
//! The same representation is the input to multi-threaded co-processor
//! synthesis (Section 4.5.1): `codesign-synth` clusters processes onto
//! controller/datapath pairs, and `codesign-partition` decides which
//! processes run as software.

use std::collections::BTreeMap;

use crate::error::IrError;

/// Identifier of a process within one [`ProcessNetwork`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcessId(pub(crate) u32);

impl ProcessId {
    /// Creates an id from a dense index. Ids are only meaningful for the
    /// network that has at least `index + 1` processes.
    #[must_use]
    pub fn from_index(index: usize) -> Self {
        ProcessId(index as u32)
    }

    /// Returns the dense index of this process.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for ProcessId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Identifier of a channel within one [`ProcessNetwork`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChannelId(pub(crate) u32);

impl ChannelId {
    /// Creates an id from a dense index. Ids are only meaningful for the
    /// network that has at least `index + 1` channels.
    #[must_use]
    pub fn from_index(index: usize) -> Self {
        ChannelId(index as u32)
    }

    /// Returns the dense index of this channel.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for ChannelId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// One step of a process body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Busy computation for the given number of cycles.
    Compute(u64),
    /// Send `bytes` bytes over a channel; blocks until the receiver is
    /// ready (rendezvous) or buffer space is available.
    Send {
        /// Channel to send on.
        channel: ChannelId,
        /// Message size in bytes.
        bytes: u64,
    },
    /// Receive one message from a channel; blocks until one is available.
    Receive {
        /// Channel to receive from.
        channel: ChannelId,
    },
    /// Idle (e.g. waiting for a timer) for the given number of cycles.
    Wait(u64),
}

/// A point-to-point communication channel.
#[derive(Debug, Clone, PartialEq)]
pub struct Channel {
    name: String,
    capacity: usize,
}

impl Channel {
    /// Channel name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Buffer capacity in messages; 0 means strict rendezvous.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

/// A sequential process: a named body of [`Action`]s executed a fixed
/// number of iterations.
#[derive(Debug, Clone, PartialEq)]
pub struct Process {
    name: String,
    actions: Vec<Action>,
    iterations: u32,
    kernel: Option<String>,
}

impl Process {
    /// Creates a process executing `actions` once.
    #[must_use]
    pub fn new(name: impl Into<String>, actions: Vec<Action>) -> Self {
        Process {
            name: name.into(),
            actions,
            iterations: 1,
            kernel: None,
        }
    }

    /// Sets the number of body iterations (at least 1).
    #[must_use]
    pub fn with_iterations(mut self, iterations: u32) -> Self {
        self.iterations = iterations.max(1);
        self
    }

    /// Names the CDFG kernel this process's compute implements, enabling
    /// calibrated hardware speedups in multi-threaded co-processor
    /// synthesis.
    #[must_use]
    pub fn with_kernel(mut self, kernel: impl Into<String>) -> Self {
        self.kernel = Some(kernel.into());
        self
    }

    /// Process name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Name of the kernel this process's compute implements, if any.
    #[must_use]
    pub fn kernel(&self) -> Option<&str> {
        self.kernel.as_deref()
    }

    /// The body, executed [`Process::iterations`] times.
    #[must_use]
    pub fn actions(&self) -> &[Action] {
        &self.actions
    }

    /// Number of body iterations.
    #[must_use]
    pub fn iterations(&self) -> u32 {
        self.iterations
    }

    /// Total busy computation over all iterations, in cycles.
    #[must_use]
    pub fn total_compute(&self) -> u64 {
        let per_iter: u64 = self
            .actions
            .iter()
            .map(|a| match a {
                Action::Compute(c) => *c,
                _ => 0,
            })
            .sum();
        per_iter * u64::from(self.iterations)
    }

    /// Total bytes sent over all iterations.
    #[must_use]
    pub fn total_sent_bytes(&self) -> u64 {
        let per_iter: u64 = self
            .actions
            .iter()
            .map(|a| match a {
                Action::Send { bytes, .. } => *bytes,
                _ => 0,
            })
            .sum();
        per_iter * u64::from(self.iterations)
    }
}

/// A network of communicating sequential processes.
///
/// # Example
///
/// ```
/// use codesign_ir::process::{Action, Process, ProcessNetwork};
///
/// # fn main() -> Result<(), codesign_ir::IrError> {
/// let mut net = ProcessNetwork::new("prodcons");
/// let ch = net.add_channel("data", 0);
/// net.add_process(Process::new(
///     "producer",
///     vec![Action::Compute(100), Action::Send { channel: ch, bytes: 32 }],
/// ).with_iterations(8));
/// net.add_process(Process::new(
///     "consumer",
///     vec![Action::Receive { channel: ch }, Action::Compute(250)],
/// ).with_iterations(8));
/// net.validate()?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessNetwork {
    name: String,
    processes: Vec<Process>,
    channels: Vec<Channel>,
}

impl ProcessNetwork {
    /// Creates an empty network.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        ProcessNetwork {
            name: name.into(),
            processes: Vec::new(),
            channels: Vec::new(),
        }
    }

    /// Network name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Declares a channel with the given buffer capacity (0 = rendezvous)
    /// and returns its id.
    pub fn add_channel(&mut self, name: impl Into<String>, capacity: usize) -> ChannelId {
        let id = ChannelId(self.channels.len() as u32);
        self.channels.push(Channel {
            name: name.into(),
            capacity,
        });
        id
    }

    /// Adds a process and returns its id.
    pub fn add_process(&mut self, process: Process) -> ProcessId {
        let id = ProcessId(self.processes.len() as u32);
        self.processes.push(process);
        id
    }

    /// Number of processes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.processes.len()
    }

    /// Whether the network has no processes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.processes.is_empty()
    }

    /// Number of channels.
    #[must_use]
    pub fn channel_count(&self) -> usize {
        self.channels.len()
    }

    /// The process with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this network.
    #[must_use]
    pub fn process(&self, id: ProcessId) -> &Process {
        &self.processes[id.index()]
    }

    /// The channel with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this network.
    #[must_use]
    pub fn channel(&self, id: ChannelId) -> &Channel {
        &self.channels[id.index()]
    }

    /// Iterates over `(id, process)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (ProcessId, &Process)> {
        self.processes
            .iter()
            .enumerate()
            .map(|(i, p)| (ProcessId(i as u32), p))
    }

    /// Iterates over all process ids.
    pub fn ids(&self) -> impl Iterator<Item = ProcessId> {
        (0..self.processes.len() as u32).map(ProcessId)
    }

    /// Looks up a channel id by name.
    #[must_use]
    pub fn channel_by_name(&self, name: &str) -> Option<ChannelId> {
        self.channels
            .iter()
            .position(|c| c.name == name)
            .map(|i| ChannelId(i as u32))
    }

    /// The unique sender of each channel, inferred from process bodies.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::Invalid`] if a channel has more than one sending
    /// process (channels are point-to-point).
    pub fn senders(&self) -> Result<BTreeMap<ChannelId, ProcessId>, IrError> {
        self.endpoint_map(|a| match a {
            Action::Send { channel, .. } => Some(*channel),
            _ => None,
        })
    }

    /// The unique receiver of each channel, inferred from process bodies.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::Invalid`] if a channel has more than one
    /// receiving process (channels are point-to-point).
    pub fn receivers(&self) -> Result<BTreeMap<ChannelId, ProcessId>, IrError> {
        self.endpoint_map(|a| match a {
            Action::Receive { channel } => Some(*channel),
            _ => None,
        })
    }

    fn endpoint_map(
        &self,
        select: impl Fn(&Action) -> Option<ChannelId>,
    ) -> Result<BTreeMap<ChannelId, ProcessId>, IrError> {
        let mut map: BTreeMap<ChannelId, ProcessId> = BTreeMap::new();
        for (pid, p) in self.iter() {
            for a in p.actions() {
                if let Some(ch) = select(a) {
                    if let Some(&prev) = map.get(&ch) {
                        if prev != pid {
                            return Err(IrError::Invalid {
                                reason: format!(
                                    "channel {} used by both {} and {}",
                                    self.channel(ch).name(),
                                    self.process(prev).name(),
                                    self.process(pid).name()
                                ),
                            });
                        }
                    } else {
                        map.insert(ch, pid);
                    }
                }
            }
        }
        Ok(map)
    }

    /// Bytes exchanged between every ordered pair of processes, summed
    /// over all channels and iterations. The matrix is the communication
    /// input to partitioning: the paper notes that communication overhead
    /// "favors partitions that localize communication" (Section 3.3).
    ///
    /// # Errors
    ///
    /// Propagates the point-to-point violations of [`ProcessNetwork::senders`]
    /// / [`ProcessNetwork::receivers`].
    pub fn comm_matrix(&self) -> Result<BTreeMap<(ProcessId, ProcessId), u64>, IrError> {
        let senders = self.senders()?;
        let receivers = self.receivers()?;
        let mut matrix = BTreeMap::new();
        for (pid, p) in self.iter() {
            for a in p.actions() {
                if let Action::Send { channel, bytes } = a {
                    if let Some(&dst) = receivers.get(channel) {
                        *matrix.entry((pid, dst)).or_insert(0) += bytes * u64::from(p.iterations());
                    }
                }
            }
            let _ = &senders; // senders validated for point-to-pointness
        }
        Ok(matrix)
    }

    /// Validates the network: all channel references resolve, and every
    /// channel is point-to-point with both a sender and a receiver.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), IrError> {
        for p in &self.processes {
            for a in p.actions() {
                let ch = match a {
                    Action::Send { channel, .. } | Action::Receive { channel } => Some(*channel),
                    _ => None,
                };
                if let Some(ch) = ch {
                    if ch.index() >= self.channels.len() {
                        return Err(IrError::UnknownNode {
                            kind: "process network",
                            index: ch.index(),
                        });
                    }
                }
            }
        }
        let senders = self.senders()?;
        let receivers = self.receivers()?;
        for (i, c) in self.channels.iter().enumerate() {
            let id = ChannelId(i as u32);
            if !senders.contains_key(&id) {
                return Err(IrError::Invalid {
                    reason: format!("channel {} has no sender", c.name()),
                });
            }
            if !receivers.contains_key(&id) {
                return Err(IrError::Invalid {
                    reason: format!("channel {} has no receiver", c.name()),
                });
            }
            if senders[&id] == receivers[&id] {
                return Err(IrError::Invalid {
                    reason: format!("channel {} loops back to its sender", c.name()),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prodcons() -> ProcessNetwork {
        let mut net = ProcessNetwork::new("prodcons");
        let ch = net.add_channel("data", 0);
        net.add_process(
            Process::new(
                "producer",
                vec![
                    Action::Compute(100),
                    Action::Send {
                        channel: ch,
                        bytes: 32,
                    },
                ],
            )
            .with_iterations(4),
        );
        net.add_process(
            Process::new(
                "consumer",
                vec![Action::Receive { channel: ch }, Action::Compute(250)],
            )
            .with_iterations(4),
        );
        net
    }

    #[test]
    fn validates_clean_network() {
        prodcons().validate().unwrap();
    }

    #[test]
    fn totals_scale_with_iterations() {
        let net = prodcons();
        let producer = net.process(ProcessId(0));
        assert_eq!(producer.total_compute(), 400);
        assert_eq!(producer.total_sent_bytes(), 128);
    }

    #[test]
    fn comm_matrix_sums_bytes() {
        let net = prodcons();
        let m = net.comm_matrix().unwrap();
        assert_eq!(m.get(&(ProcessId(0), ProcessId(1))), Some(&128));
        assert_eq!(m.get(&(ProcessId(1), ProcessId(0))), None);
    }

    #[test]
    fn channel_with_two_senders_rejected() {
        let mut net = ProcessNetwork::new("bad");
        let ch = net.add_channel("c", 0);
        for name in ["a", "b"] {
            net.add_process(Process::new(
                name,
                vec![Action::Send {
                    channel: ch,
                    bytes: 1,
                }],
            ));
        }
        net.add_process(Process::new("r", vec![Action::Receive { channel: ch }]));
        assert!(matches!(net.validate(), Err(IrError::Invalid { .. })));
    }

    #[test]
    fn channel_without_receiver_rejected() {
        let mut net = ProcessNetwork::new("bad");
        let ch = net.add_channel("c", 0);
        net.add_process(Process::new(
            "s",
            vec![Action::Send {
                channel: ch,
                bytes: 1,
            }],
        ));
        assert!(matches!(net.validate(), Err(IrError::Invalid { .. })));
    }

    #[test]
    fn loopback_channel_rejected() {
        let mut net = ProcessNetwork::new("bad");
        let ch = net.add_channel("c", 0);
        net.add_process(Process::new(
            "p",
            vec![
                Action::Send {
                    channel: ch,
                    bytes: 1,
                },
                Action::Receive { channel: ch },
            ],
        ));
        assert!(matches!(net.validate(), Err(IrError::Invalid { .. })));
    }

    #[test]
    fn dangling_channel_reference_rejected() {
        let mut net = ProcessNetwork::new("bad");
        net.add_process(Process::new(
            "p",
            vec![Action::Send {
                channel: ChannelId(5),
                bytes: 1,
            }],
        ));
        assert!(matches!(net.validate(), Err(IrError::UnknownNode { .. })));
    }

    #[test]
    fn channel_lookup_by_name() {
        let net = prodcons();
        assert_eq!(net.channel_by_name("data"), Some(ChannelId(0)));
        assert_eq!(net.channel_by_name("nope"), None);
    }

    #[test]
    fn iterations_floor_at_one() {
        let p = Process::new("p", vec![]).with_iterations(0);
        assert_eq!(p.iterations(), 1);
    }
}
