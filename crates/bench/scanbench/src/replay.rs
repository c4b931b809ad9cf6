//! Record once over the simulated Internet, replay from memory.
//!
//! [`Recorder`] wraps a live transport and logs the engine's side of the
//! conversation: every `send_batch`/`send_frame` (frame count, virtual
//! clock after the call, a hash of the first frame), every
//! `recv_frames` batch and every `next_rx_at`/`killed` answer, each
//! tagged with the engine's virtual clock, in call order. It also hands
//! every sent frame to a [`TxOracle`], which checks the frame against
//! the scan's plan.
//!
//! [`Replayer`] plays a [`Recording`] back. It keeps its own virtual
//! clock exactly as `SimTransport` does and checks each call against the
//! log: the call kind, the clock, the frame count and the first frame's
//! hash must all match. On the first mismatch it records a
//! [`Divergence`] and turns into a dead NIC (sends fail with
//! `SendError::Killed`, `killed()` answers true), so the engine stops at
//! once; [`ReplayState::finish`] then reports the divergence and the
//! caller discards the run's results.

use crate::alloc;
use crate::measure::digest;
use crate::oracle::TxOracle;
use std::cell::{Cell, RefCell};
use std::collections::hash_map::DefaultHasher;
use std::fmt;
use std::hash::Hasher;
use std::time::Instant;
use zmap_core::transport::FrameBatch;
use zmap_core::Transport;
use zmap_netsim::SendError;

/// Received frames with their receive timestamps, as `recv_frames`
/// returns them.
pub type Frames = Vec<(u64, Vec<u8>)>;

/// One transport call the engine made.
#[derive(Clone, Debug)]
pub enum Call {
    /// `send_batch` (or a lone retried `send_frame` when `frames == 1`
    /// and `single`): frames accepted, the clock after the call, and a
    /// hash of the first frame handed over.
    Send {
        frames: u32,
        single: bool,
        clock: u64,
        first: u64,
    },
    /// `recv_frames` at `clock`, with what it returned.
    Recv { clock: u64, frames: Frames },
    /// `next_rx_at` at `clock`, with its answer.
    NextRx { clock: u64, answer: Option<u64> },
    /// `killed` at `clock` (the recording never saw a kill).
    Killed { clock: u64 },
}

impl Call {
    fn kind(&self) -> &'static str {
        match self {
            Call::Send { single: false, .. } => "send_batch",
            Call::Send { single: true, .. } => "send_frame",
            Call::Recv { .. } => "recv_frames",
            Call::NextRx { .. } => "next_rx_at",
            Call::Killed { .. } => "killed",
        }
    }

    fn clock(&self) -> u64 {
        match self {
            Call::Send { clock, .. }
            | Call::Recv { clock, .. }
            | Call::NextRx { clock, .. }
            | Call::Killed { clock } => *clock,
        }
    }
}

/// The engine's conversation with the network during one scan.
#[derive(Clone, Debug, Default)]
pub struct Recording {
    /// Every transport call, in order.
    pub calls: Vec<Call>,
    /// Hash over every frame sent, in order, with the per-probe IP ID
    /// and IPv4 header checksum masked out (the layer pass renders with
    /// its own IP ID entropy; every other byte must match).
    pub tx_digest: u64,
    /// Frames sent.
    pub frames_sent: u64,
    /// Frames received.
    pub frames_received: u64,
    /// Probes at fault and why, if the sent frames failed the
    /// [`TxOracle`].
    pub tx_error: Option<(u64, String)>,
}

impl Recording {
    /// `send_batch` calls in the recording.
    pub fn batches(&self) -> usize {
        self.calls
            .iter()
            .filter(|c| matches!(c, Call::Send { single: false, .. }))
            .count()
    }

    /// `recv_frames` calls in the recording.
    pub fn recv_calls(&self) -> usize {
        self.calls
            .iter()
            .filter(|c| matches!(c, Call::Recv { .. }))
            .count()
    }
}

/// Feeds `frame` into `h`, skipping the IPv4 IP ID and header checksum
/// (the only bytes the per-probe IP ID entropy reaches). IPv6 frames
/// carry no IP ID and are hashed whole.
pub fn hash_masked(h: &mut DefaultHasher, frame: &[u8]) {
    const ETH: usize = 14;
    let is_v4 = frame.len() >= ETH + 20 && frame[12..14] == [0x08, 0x00];
    if is_v4 {
        h.write(&frame[..ETH + 4]);
        h.write(&frame[ETH + 6..ETH + 10]);
        h.write(&frame[ETH + 12..]);
    } else {
        h.write(frame);
    }
}

/// Transport wrapper that records the conversation while forwarding
/// every call to `inner`, and holds every sent frame to `oracle`.
pub struct Recorder<T: Transport> {
    inner: T,
    log: RefCell<Recording>,
    tx: DefaultHasher,
    oracle: TxOracle,
}

impl<T: Transport> Recorder<T> {
    /// Wraps `inner`.
    pub fn new(inner: T, oracle: TxOracle) -> Self {
        Recorder {
            inner,
            log: RefCell::new(Recording::default()),
            tx: DefaultHasher::new(),
            oracle,
        }
    }

    /// Finishes recording.
    pub fn into_recording(self) -> Recording {
        let mut rec = self.log.into_inner();
        rec.tx_digest = self.tx.finish();
        rec.tx_error = self.oracle.finish().err();
        rec
    }

    fn sent(&mut self, frame: &[u8]) {
        hash_masked(&mut self.tx, frame);
        self.oracle.frame(frame);
    }
}

/// The transport handed to the engine: borrows the [`Recorder`] so the
/// recording outlives the scanner, which consumes its transport.
pub struct RecorderHandle<'a, T: Transport>(pub &'a mut Recorder<T>);

impl<T: Transport> Transport for RecorderHandle<'_, T> {
    fn now(&self) -> u64 {
        self.0.inner.now()
    }

    fn advance_to(&mut self, t: u64) {
        self.0.inner.advance_to(t);
    }

    fn send_frame(&mut self, frame: &[u8]) -> Result<(), SendError> {
        let r = self.0.inner.send_frame(frame);
        if r.is_ok() {
            self.0.sent(frame);
            let mut log = self.0.log.borrow_mut();
            log.frames_sent += 1;
            let clock = self.0.inner.now();
            log.calls.push(Call::Send {
                frames: 1,
                single: true,
                clock,
                first: digest(frame),
            });
        }
        r
    }

    fn send_batch(&mut self, batch: &FrameBatch, from_idx: usize) -> (usize, Option<SendError>) {
        let (n, err) = self.0.inner.send_batch(batch, from_idx);
        for i in from_idx..from_idx + n {
            self.0.sent(batch.frame(i).1);
        }
        let first = if from_idx < batch.len() {
            digest(batch.frame(from_idx).1)
        } else {
            0
        };
        let clock = self.0.inner.now();
        let mut log = self.0.log.borrow_mut();
        log.frames_sent += n as u64;
        log.calls.push(Call::Send {
            frames: n as u32,
            single: false,
            clock,
            first,
        });
        (n, err)
    }

    fn recv_frames(&mut self) -> Frames {
        let frames = self.0.inner.recv_frames();
        let clock = self.0.inner.now();
        let mut log = self.0.log.borrow_mut();
        log.frames_received += frames.len() as u64;
        log.calls.push(Call::Recv {
            clock,
            frames: frames.clone(),
        });
        frames
    }

    fn next_rx_at(&self) -> Option<u64> {
        let answer = self.0.inner.next_rx_at();
        let clock = self.0.inner.now();
        self.0
            .log
            .borrow_mut()
            .calls
            .push(Call::NextRx { clock, answer });
        answer
    }

    fn killed(&self) -> bool {
        let k = self.0.inner.killed();
        let clock = self.0.inner.now();
        self.0.log.borrow_mut().calls.push(Call::Killed { clock });
        k
    }
}

/// Where and how a replay left the recorded conversation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Divergence {
    /// Index of the first call that did not match (the log length when
    /// the engine made more calls than were recorded, or stopped early).
    pub index: usize,
    /// What the recording expected there.
    pub expected: String,
    /// What the engine did.
    pub got: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "replay diverged at call {}: recorded {}, engine made {}",
            self.index, self.expected, self.got
        )
    }
}

impl std::error::Error for Divergence {}

/// A recording loaded for one replay run: its own copy of the received
/// frames (the engine takes ownership of each batch), a cursor, and the
/// virtual clock.
pub struct ReplayState {
    calls: Vec<Call>,
    /// Heap bytes of each `Recv` call's frames, credited to the engine
    /// when handed over (see [`alloc::credit`]).
    recv_bytes: Vec<usize>,
    cursor: Cell<usize>,
    now: u64,
    error: RefCell<Option<Divergence>>,
    /// Wall-clock stamps (ns since `epoch`) of each `send_batch` call.
    batch_stamps: Vec<u64>,
    epoch: Instant,
}

impl ReplayState {
    /// Copies `rec` for one replay; the copy's allocation happens here,
    /// outside any timed region.
    pub fn new(rec: &Recording) -> Self {
        let calls = rec.calls.clone();
        let recv_bytes = calls
            .iter()
            .map(|c| match c {
                Call::Recv { frames, .. } => {
                    frames.capacity() * std::mem::size_of::<(u64, Vec<u8>)>()
                        + frames.iter().map(|(_, f)| f.capacity()).sum::<usize>()
                }
                _ => 0,
            })
            .collect();
        ReplayState {
            calls,
            recv_bytes,
            cursor: Cell::new(0),
            now: 0,
            error: RefCell::new(None),
            batch_stamps: Vec::with_capacity(rec.batches()),
            epoch: Instant::now(),
        }
    }

    /// The transport to hand the engine.
    pub fn transport(&mut self) -> Replayer<'_> {
        Replayer(self)
    }

    /// Ends the replay: `Err` if the engine left the recorded
    /// conversation anywhere, or stopped before its end.
    pub fn finish(&self) -> Result<(), Divergence> {
        if let Some(d) = self.error.borrow().clone() {
            return Err(d);
        }
        let at = self.cursor.get();
        if at != self.calls.len() {
            return Err(Divergence {
                index: at,
                expected: describe(&self.calls[at]),
                got: "no further call".into(),
            });
        }
        Ok(())
    }

    /// Wall time between consecutive `send_batch` calls, in ns.
    pub fn batch_gaps(&self) -> impl Iterator<Item = u64> + '_ {
        self.batch_stamps.windows(2).map(|w| w[1] - w[0])
    }

    fn diverge(&self, index: usize, got: String) {
        let mut e = self.error.borrow_mut();
        if e.is_none() {
            *e = Some(Divergence {
                index,
                expected: self
                    .calls
                    .get(index)
                    .map_or_else(|| "end of recording".into(), describe),
                got,
            });
        }
    }

    fn failed(&self) -> bool {
        self.error.borrow().is_some()
    }
}

fn describe(c: &Call) -> String {
    format!("{} at t={}ns", c.kind(), c.clock())
}

/// The replay transport handed to the engine; borrows its
/// [`ReplayState`] so the state outlives the consumed scanner.
pub struct Replayer<'a>(&'a mut ReplayState);

impl Transport for Replayer<'_> {
    fn now(&self) -> u64 {
        self.0.now
    }

    fn advance_to(&mut self, t: u64) {
        if t > self.0.now {
            self.0.now = t;
        }
    }

    fn send_frame(&mut self, frame: &[u8]) -> Result<(), SendError> {
        let s = &mut *self.0;
        if s.failed() {
            return Err(SendError::Killed);
        }
        let i = s.cursor.get();
        match s.calls.get(i) {
            Some(&Call::Send {
                frames: 1,
                single: true,
                clock,
                first,
            }) if clock == s.now && first == digest(frame) => {
                s.cursor.set(i + 1);
                Ok(())
            }
            _ => {
                s.diverge(i, format!("send_frame at t={}ns", s.now));
                Err(SendError::Killed)
            }
        }
    }

    fn send_batch(&mut self, batch: &FrameBatch, from_idx: usize) -> (usize, Option<SendError>) {
        let s = &mut *self.0;
        s.batch_stamps.push(s.epoch.elapsed().as_nanos() as u64);
        if s.failed() {
            return (0, Some(SendError::Killed));
        }
        for i in from_idx..batch.len() {
            let at = batch.frame(i).0;
            if at > s.now {
                s.now = at;
            }
        }
        let n = batch.len().saturating_sub(from_idx);
        let i = s.cursor.get();
        let matches = match s.calls.get(i) {
            Some(&Call::Send {
                frames,
                single: false,
                clock,
                first,
            }) => {
                frames as usize == n
                    && clock == s.now
                    && n > 0
                    && first == digest(batch.frame(from_idx).1)
            }
            _ => false,
        };
        if matches {
            s.cursor.set(i + 1);
            (n, None)
        } else {
            s.diverge(i, format!("send_batch of {n} frames ending t={}ns", s.now));
            (0, Some(SendError::Killed))
        }
    }

    fn recv_frames(&mut self) -> Frames {
        let s = &mut *self.0;
        if s.failed() {
            return Vec::new();
        }
        let i = s.cursor.get();
        let now = s.now;
        match s.calls.get_mut(i) {
            Some(Call::Recv { clock, frames }) if *clock == now => {
                s.cursor.set(i + 1);
                alloc::credit(s.recv_bytes[i]);
                std::mem::take(frames)
            }
            _ => {
                s.diverge(i, format!("recv_frames at t={now}ns"));
                Vec::new()
            }
        }
    }

    fn next_rx_at(&self) -> Option<u64> {
        let s = &*self.0;
        if s.failed() {
            return None;
        }
        let i = s.cursor.get();
        match s.calls.get(i) {
            Some(&Call::NextRx { clock, answer }) if clock == s.now => {
                s.cursor.set(i + 1);
                answer
            }
            _ => {
                s.diverge(i, format!("next_rx_at at t={}ns", s.now));
                None
            }
        }
    }

    fn killed(&self) -> bool {
        let s = &*self.0;
        if s.failed() {
            return true;
        }
        let i = s.cursor.get();
        match s.calls.get(i) {
            Some(&Call::Killed { clock }) if clock == s.now => {
                s.cursor.set(i + 1);
                false
            }
            _ => {
                s.diverge(i, format!("killed at t={}ns", s.now));
                true
            }
        }
    }
}
