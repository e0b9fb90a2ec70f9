//! Versioned, dependency-free serialization of simulator state:
//! checkpoint the mesh flood ([`crate::experiments::mesh::MeshDriver`])
//! at an event boundary and resume it bit-identically. The mesh is the
//! one driver with state worth saving — its event queue, PP-ARQ masks,
//! timers and jammer RNG feed back into what happens next. The testbed
//! reception pass keeps no checkpoint: it is a deterministic function
//! of the scenario, cheaper to run again than to save.
//!
//! ## Byte layout
//!
//! Every snapshot is one self-contained byte string:
//!
//! ```text
//! | magic "PPRSNAP1" | version u32 | kind u8 | payload ... | fingerprint u64 |
//!       8 bytes          LE           1 B                       FNV-1a, LE
//! ```
//!
//! All integers are little-endian and fixed-width; floats travel as
//! their IEEE-754 bit patterns (`f64::to_bits`), never as text — a
//! snapshot is exact or it is nothing. Variable-length sections are
//! length-prefixed (`u64` count, then elements). The trailing
//! fingerprint is [`crate::results::fingerprint`] (FNV-1a 64) over
//! everything before it; [`SnapReader::finish`] rejects a byte string
//! whose trailer does not match, so truncation and bit rot are caught
//! before any field is trusted.
//!
//! ## Versioning and stability
//!
//! [`SNAPSHOT_VERSION`] names the layout. Readers accept exactly the
//! current version: a snapshot is a *checkpoint*, not an archive
//! format, so cross-version migration is out of scope — but the layout
//! is pinned by `tests/snapshot_roundtrip.rs` (a byte-level fingerprint
//! test), so an accidental layout change fails CI rather than silently
//! orphaning saved state. Bump the version whenever the byte layout
//! changes, and update that pinned fingerprint in the same commit.
//!
//! ## What is serialized, and what is reconstructed
//!
//! The format stores each fact once: the state restore cannot
//! recompute from the run's inputs, plus *identity fields* (seed,
//! config, fingerprints of the timeline and the radio environment) that
//! restore validates against the inputs it is handed. Whatever restore
//! can derive is left out, so a snapshot cannot contradict itself
//! about it:
//!
//! * **The mesh's event queue** — every scheduled `(EventKey,
//!   SimEvent)` pair with its key preserved verbatim (including `seq`
//!   tie-breaks), plus the queue's push/dispatch counters
//!   ([`crate::event::BinaryHeapQueue::save_state`]).
//! * **Per-link PP-ARQ session state** — the mesh driver's per-node
//!   byte-correct masks, armed timers and liveness. A node's
//!   correct-byte count is its mask's popcount over the payload, and it
//!   has recovered (and rebroadcast) exactly when that count is the
//!   payload length, so none of the three is stored. `ChunkScratch`
//!   contents are excluded too: the chunking DP's scratch is
//!   reallocated per plan.
//! * **Running counters** — the mesh stats section holds only the ten
//!   counters the event loop accumulates. Node and shard counts come
//!   from the rebuilt placement, transmissions and repairs from the
//!   transmission store, and the end-of-run totals are set when the
//!   run ends.
//! * **The jammer's RNG** — the one stream that advances across events,
//!   stored as its xoshiro256++ state words (`StdRng::state`).
//!
//! Structs whose fields persist through this format are wrapped in
//! `// ppr-lint: region(snapshot-state)` markers, and every field in
//! such a region must declare its snapshot handling in a `snapshot:`
//! comment — the ppr-lint `snapshot-field-doc` rule fails the build
//! otherwise, so a new piece of simulator state cannot silently dodge
//! the checkpoint story.

use crate::event::EventKey;
use crate::event::SimEvent;
use crate::network::Reception;
use crate::results::fingerprint;

/// Leading magic of every snapshot byte string.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"PPRSNAP1";

/// Current byte-layout version. Readers accept exactly this version.
///
/// Version history: 1 — initial format; 2 — adversarial state (jammer
/// identity + actor state, node liveness, fault/backoff knobs, and the
/// `JamBurst`/`NodeFault` event tags); 3 — the reception snapshot holds
/// a list of receiver arms instead of one, and its output is either the
/// one arm's slot table or every arm's fold (per-link counters, plus
/// hint and miss-run histograms for symbol-trace arms); 4 — every field
/// restore can recompute is gone: the reception snapshot's per-receiver
/// next slots and RNG words, the mesh nodes' correct-byte counts and
/// recovery/rebroadcast flags, ten of its twenty stats words, and the
/// `TxEnd` event tag; 5 — the reception snapshot is a timeline prefix
/// (its started count, busy horizons and output, with no event queue),
/// and `ReceptionComplete` carries no output slot. The reception
/// snapshot (kind 1) is gone since; the mesh layout did not move.
pub const SNAPSHOT_VERSION: u32 = 5;

/// Kind tag of a mesh flood-driver snapshot ([`MeshSnapshot`]), the
/// one snapshot kind. Kind 1 was the testbed reception snapshot, which
/// no reader accepts any more.
pub const KIND_MESH: u8 = 2;

/// Why a snapshot byte string was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The byte string ended before a field was complete.
    Truncated,
    /// The leading magic is not [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The layout version is not [`SNAPSHOT_VERSION`].
    BadVersion(u32),
    /// The kind tag does not name the expected snapshot type.
    BadKind(u8),
    /// The trailing FNV-1a fingerprint does not match the bytes.
    BadFingerprint {
        /// Fingerprint stored in the trailer.
        stored: u64,
        /// Fingerprint recomputed over the received bytes.
        computed: u64,
    },
    /// A field decoded to a structurally invalid value.
    Corrupt(String),
    /// The snapshot's identity fields do not match the run inputs the
    /// restore was handed (different seed, config, timeline or radio
    /// environment).
    IdentityMismatch(String),
}

impl std::fmt::Display for SnapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapError::Truncated => write!(f, "snapshot truncated"),
            SnapError::BadMagic => write!(f, "not a PPR snapshot (bad magic)"),
            SnapError::BadVersion(v) => {
                write!(
                    f,
                    "snapshot version {v} (this build reads {SNAPSHOT_VERSION})"
                )
            }
            SnapError::BadKind(k) => write!(f, "unexpected snapshot kind {k}"),
            SnapError::BadFingerprint { stored, computed } => write!(
                f,
                "snapshot fingerprint mismatch: trailer {stored:#018x}, bytes {computed:#018x}"
            ),
            SnapError::Corrupt(m) => write!(f, "corrupt snapshot: {m}"),
            SnapError::IdentityMismatch(m) => write!(f, "snapshot/run mismatch: {m}"),
        }
    }
}

impl std::error::Error for SnapError {}

/// Little-endian, fixed-width snapshot writer. The `finish` call
/// appends the FNV-1a trailer; everything else appends raw field bytes.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// A writer primed with the magic, version and kind header.
    pub fn new(kind: u8) -> Self {
        let mut w = SnapWriter { buf: Vec::new() };
        w.buf.extend_from_slice(&SNAPSHOT_MAGIC);
        w.u32(SNAPSHOT_VERSION);
        w.u8(kind);
        w
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a bool as one byte (0/1).
    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Appends a little-endian u16.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian u32.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian u64.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a usize as a u64.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends an f64 as its IEEE-754 bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Appends a length-prefixed sequence, each element by `put`.
    pub fn seq<T>(&mut self, items: &[T], mut put: impl FnMut(&mut Self, &T)) {
        self.usize(items.len());
        for item in items {
            put(self, item);
        }
    }

    /// Appends the FNV-1a trailer and returns the finished byte string.
    pub fn finish(mut self) -> Vec<u8> {
        let fp = fingerprint(&self.buf);
        self.u64(fp);
        self.buf
    }

    /// The raw accumulated bytes, with no trailer — for callers (like
    /// stream fingerprinting) that use the writer as a canonical field
    /// encoder rather than a snapshot container.
    pub fn into_inner(self) -> Vec<u8> {
        self.buf
    }
}

/// Little-endian snapshot reader: the mirror of [`SnapWriter`], with
/// the fingerprint and header validated up front by [`SnapReader::new`].
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// Validates the trailer fingerprint, magic, version and kind, then
    /// positions the reader at the first payload field.
    pub fn new(bytes: &'a [u8], kind: u8) -> Result<SnapReader<'a>, SnapError> {
        let header = SNAPSHOT_MAGIC.len() + 4 + 1;
        if bytes.len() < header + 8 {
            return Err(SnapError::Truncated);
        }
        let (body, trailer) = bytes.split_at(bytes.len() - 8);
        let stored = u64::from_le_bytes(trailer.try_into().expect("8-byte trailer"));
        let computed = fingerprint(body);
        if stored != computed {
            return Err(SnapError::BadFingerprint { stored, computed });
        }
        let mut r = SnapReader { buf: body, pos: 0 };
        let mut magic = [0u8; 8];
        for b in &mut magic {
            *b = r.u8()?;
        }
        if magic != SNAPSHOT_MAGIC {
            return Err(SnapError::BadMagic);
        }
        let version = r.u32()?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapError::BadVersion(version));
        }
        let k = r.u8()?;
        if k != kind {
            return Err(SnapError::BadKind(k));
        }
        Ok(r)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        let end = self.pos.checked_add(n).ok_or(SnapError::Truncated)?;
        if end > self.buf.len() {
            return Err(SnapError::Truncated);
        }
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a bool (rejecting anything but 0/1).
    pub fn bool(&mut self) -> Result<bool, SnapError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(SnapError::Corrupt(format!("bool byte {b}"))),
        }
    }

    /// Reads a little-endian u16.
    pub fn u16(&mut self) -> Result<u16, SnapError> {
        Ok(u16::from_le_bytes(
            self.take(2)?.try_into().expect("2 bytes"),
        ))
    }

    /// Reads a little-endian u32.
    pub fn u32(&mut self) -> Result<u32, SnapError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a little-endian u64.
    pub fn u64(&mut self) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads a u64-encoded usize.
    pub fn usize(&mut self) -> Result<usize, SnapError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| SnapError::Corrupt(format!("usize {v} overflows")))
    }

    /// Reads an IEEE-754 bit pattern back to f64.
    pub fn f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<Vec<u8>, SnapError> {
        let n = self.usize()?;
        Ok(self.take(n)?.to_vec())
    }

    /// Reads a length-prefixed sequence, each element by `get`. Every
    /// element takes at least one byte, so a count beyond the bytes
    /// left is [`SnapError::Truncated`] before anything is allocated.
    pub fn seq<T>(
        &mut self,
        mut get: impl FnMut(&mut Self) -> Result<T, SnapError>,
    ) -> Result<Vec<T>, SnapError> {
        let n = self.usize()?;
        if n > self.buf.len() - self.pos {
            return Err(SnapError::Truncated);
        }
        (0..n).map(|_| get(self)).collect()
    }

    /// Asserts every payload byte was consumed (the fingerprint already
    /// matched, so trailing garbage means an encoder/decoder mismatch).
    pub fn finish(self) -> Result<(), SnapError> {
        if self.pos != self.buf.len() {
            return Err(SnapError::Corrupt(format!(
                "{} unread payload bytes",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

/// Encodes one event-queue entry (key verbatim + event tag).
pub fn encode_event(w: &mut SnapWriter, key: EventKey, ev: &SimEvent) {
    w.u64(key.time);
    w.u64(key.priority);
    w.u64(key.seq);
    match *ev {
        SimEvent::TrafficArrival { sender } => {
            w.u8(0);
            w.usize(sender);
        }
        SimEvent::TxAttempt { sender } => {
            w.u8(1);
            w.usize(sender);
        }
        SimEvent::TxStart { tx } => {
            w.u8(2);
            w.usize(tx);
        }
        SimEvent::ReceptionComplete { tx, receiver } => {
            w.u8(4);
            w.usize(tx);
            w.usize(receiver);
        }
        SimEvent::ArqTimer { node, round } => {
            w.u8(5);
            w.usize(node);
            w.u8(round);
        }
        SimEvent::JamBurst { jammer } => {
            w.u8(6);
            w.usize(jammer);
        }
        SimEvent::NodeFault { node, up } => {
            w.u8(7);
            w.usize(node);
            w.bool(up);
        }
    }
}

/// Decodes one event-queue entry.
pub fn decode_event(r: &mut SnapReader) -> Result<(EventKey, SimEvent), SnapError> {
    let key = EventKey {
        time: r.u64()?,
        priority: r.u64()?,
        seq: r.u64()?,
    };
    let ev = match r.u8()? {
        0 => SimEvent::TrafficArrival { sender: r.usize()? },
        1 => SimEvent::TxAttempt { sender: r.usize()? },
        2 => SimEvent::TxStart { tx: r.usize()? },
        4 => SimEvent::ReceptionComplete {
            tx: r.usize()?,
            receiver: r.usize()?,
        },
        5 => SimEvent::ArqTimer {
            node: r.usize()?,
            round: r.u8()?,
        },
        6 => SimEvent::JamBurst { jammer: r.usize()? },
        7 => SimEvent::NodeFault {
            node: r.usize()?,
            up: r.bool()?,
        },
        t => return Err(SnapError::Corrupt(format!("event tag {t}"))),
    };
    Ok((key, ev))
}

/// Encodes one decoded [`Reception`]: the canonical field encoding that
/// [`crate::diff::stream_fingerprint`] digests. No snapshot holds
/// receptions.
pub fn encode_reception(w: &mut SnapWriter, rec: &Reception) {
    w.u64(rec.tx_id);
    w.usize(rec.sender);
    w.usize(rec.receiver);
    w.u8(rec.acquisition.to_tag());
    w.usize(rec.payload_len);
    w.usize(rec.delivered_correct);
    w.usize(rec.delivered_claimed);
    w.bool(rec.crc_ok);
    w.bytes(&rec.symbol_hints);
    w.seq(&rec.symbol_correct, |w, &b| w.bool(b));
}

fn encode_counts(w: &mut SnapWriter, counts: &[u64]) {
    w.seq(counts, |w, &c| w.u64(c));
}

fn decode_counts(r: &mut SnapReader) -> Result<Vec<u64>, SnapError> {
    r.seq(SnapReader::u64)
}

/// One node's protocol state in a mesh snapshot — the per-link PP-ARQ
/// session state of the flood (byte-correct mask, timer and liveness
/// flags). The correct-byte count and the recovery flag are derived
/// from the mask on restore; the chunking DP's `ChunkScratch` is
/// reconstructed whenever a repair is planned.
#[derive(Debug, Clone, PartialEq, Eq)]
// ppr-lint: region(snapshot-state) begin mesh per-node ARQ session state
pub struct MeshNodeSnapshot {
    /// snapshot: serialized — byte-correct bitmask over the payload.
    pub mask: Vec<u64>,
    /// snapshot: serialized — a PP-ARQ timer is armed.
    pub timer_armed: bool,
    /// snapshot: serialized — node is up (fault injection can crash and
    /// restart nodes mid-run).
    pub alive: bool,
}
// ppr-lint: region(snapshot-state) end

/// One transmission of a mesh snapshot. Frame bytes are reconstructed
/// on restore: a flood frame carries the ground-truth payload, a repair
/// frame carries exactly the bytes its spans name.
#[derive(Debug, Clone, PartialEq, Eq)]
// ppr-lint: region(snapshot-state) begin mesh transmission store
pub struct MeshTxSnapshot {
    /// snapshot: serialized — transmitting node.
    pub sender: usize,
    /// snapshot: serialized — link-layer destination (broadcast or the
    /// repair requester).
    pub dst: u16,
    /// snapshot: serialized — start chip.
    pub start: u64,
    /// snapshot: serialized — repair spans in payload coordinates
    /// (`None` for flood frames); the frame body is reconstructed from
    /// them. Spans are `(start, end)` byte ranges.
    pub spans: Option<Vec<(usize, usize)>>,
}
// ppr-lint: region(snapshot-state) end

/// A checkpoint of the mesh flood driver
/// ([`crate::experiments::mesh::MeshDriver`]) at an event boundary.
/// The pending decode batch is serialized as-is — a checkpoint never
/// forces an early flush, so batch statistics (and therefore the
/// rendered report) are bit-identical to an uninterrupted run.
#[derive(Debug, Clone, PartialEq)]
// ppr-lint: region(snapshot-state) begin mesh flood driver checkpoint
pub struct MeshSnapshot {
    /// snapshot: identity — node count.
    pub nodes: usize,
    /// snapshot: identity — expected neighbor density, exact f64 bits.
    pub density: f64,
    /// snapshot: identity — master seed (placement + corruption).
    pub seed: u64,
    /// snapshot: identity — PPR delivery threshold η.
    pub eta: u8,
    /// snapshot: identity — flooded frame body bytes.
    pub body_bytes: usize,
    /// snapshot: provenance — active kernel selection of the saving
    /// process (recorded, never validated).
    pub kernel_signature: Vec<u8>,
    /// snapshot: serialized — per-node ARQ session state.
    pub states: Vec<MeshNodeSnapshot>,
    /// snapshot: serialized — the transmission store (frames
    /// reconstructed from spans + ground truth).
    pub txs: Vec<MeshTxSnapshot>,
    /// snapshot: serialized — tx ids whose TxStart already dispatched,
    /// in dispatch order (rebuilds the per-sender half-duplex lists).
    pub started: Vec<usize>,
    /// snapshot: serialized — scheduled events, keys verbatim.
    pub queue: Vec<(EventKey, SimEvent)>,
    /// snapshot: serialized — the queue's push counter.
    pub next_seq: u64,
    /// snapshot: serialized — events dispatched so far.
    pub dispatched: u64,
    /// snapshot: serialized — completed-but-undecoded receptions, in
    /// pop order, as (tx index, receiver).
    pub pending: Vec<(usize, usize)>,
    /// snapshot: serialized — flush deadline of the pending batch.
    pub pending_deadline: u64,
    /// snapshot: serialized — chip time of the last dispatched event.
    pub last_time: u64,
    /// snapshot: serialized — the ten running counters of
    /// [`crate::experiments::mesh::MeshStats`], in field order; restore
    /// recomputes the other ten.
    pub stats: Vec<u64>,
    /// snapshot: identity — the jammer's wire identity
    /// ([`crate::adversary::JammerSpec::identity_words`]: kind tag plus
    /// two parameter words); restore refuses a different jammer.
    pub jammer: (u8, u64, u64),
    /// snapshot: identity — crash/restart churn rate, exact f64 bits.
    pub churn: f64,
    /// snapshot: identity — PP-ARQ retry budget.
    pub arq_retries: u8,
    /// snapshot: identity — PP-ARQ backoff multiplier in exact integer
    /// milli-units (the [`ppr_mac::BackoffPolicy`] representation).
    pub arq_backoff_milli: u64,
    /// snapshot: serialized — the jammer's xoshiro256++ stream position
    /// (`StdRng::state`).
    pub adv_rng: [u64; 4],
    /// snapshot: serialized — the reactive jammer's busy horizon (it
    /// cannot re-trigger while a burst is on the air).
    pub adv_busy_until: u64,
    /// snapshot: serialized — sweep-position counter (which diagonal
    /// step the next burst is emitted from).
    pub adv_sweep_idx: u64,
    /// snapshot: serialized — reactive bursts committed (sensed and
    /// scheduled) but not yet recorded, as `(start, end)` chip pairs.
    pub adv_scheduled: Vec<(u64, u64)>,
    /// snapshot: serialized — every burst emitted so far, as
    /// `(start, end, x bits, y bits)` with the emitter position frozen
    /// at emission time.
    pub adv_bursts: Vec<(u64, u64, u64, u64)>,
}
// ppr-lint: region(snapshot-state) end

impl MeshSnapshot {
    /// Serializes to the versioned byte format (kind [`KIND_MESH`]).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = SnapWriter::new(KIND_MESH);
        w.usize(self.nodes);
        w.f64(self.density);
        w.u64(self.seed);
        w.u8(self.eta);
        w.usize(self.body_bytes);
        w.bytes(&self.kernel_signature);
        w.seq(&self.states, |w, st| {
            encode_counts(w, &st.mask);
            w.bool(st.timer_armed);
            w.bool(st.alive);
        });
        w.seq(&self.txs, |w, t| {
            w.usize(t.sender);
            w.u16(t.dst);
            w.u64(t.start);
            w.bool(t.spans.is_some());
            if let Some(spans) = &t.spans {
                w.seq(spans, |w, &(s, e)| {
                    w.usize(s);
                    w.usize(e);
                });
            }
        });
        w.seq(&self.started, |w, &id| w.usize(id));
        w.seq(&self.queue, |w, (key, ev)| encode_event(w, *key, ev));
        w.u64(self.next_seq);
        w.u64(self.dispatched);
        w.seq(&self.pending, |w, &(t, r)| {
            w.usize(t);
            w.usize(r);
        });
        w.u64(self.pending_deadline);
        w.u64(self.last_time);
        encode_counts(&mut w, &self.stats);
        let (jtag, jw0, jw1) = self.jammer;
        w.u8(jtag);
        w.u64(jw0);
        w.u64(jw1);
        w.f64(self.churn);
        w.u8(self.arq_retries);
        w.u64(self.arq_backoff_milli);
        for &s in &self.adv_rng {
            w.u64(s);
        }
        w.u64(self.adv_busy_until);
        w.u64(self.adv_sweep_idx);
        w.seq(&self.adv_scheduled, |w, &(s, e)| {
            w.u64(s);
            w.u64(e);
        });
        w.seq(&self.adv_bursts, |w, &(s, e, x, y)| {
            for v in [s, e, x, y] {
                w.u64(v);
            }
        });
        w.finish()
    }

    /// Deserializes from the versioned byte format.
    pub fn from_bytes(bytes: &[u8]) -> Result<MeshSnapshot, SnapError> {
        let mut r = SnapReader::new(bytes, KIND_MESH)?;
        // Fields in wire order: a struct literal evaluates in the order
        // it is written.
        let snap = MeshSnapshot {
            nodes: r.usize()?,
            density: r.f64()?,
            seed: r.u64()?,
            eta: r.u8()?,
            body_bytes: r.usize()?,
            kernel_signature: r.bytes()?,
            states: r.seq(|r| {
                Ok(MeshNodeSnapshot {
                    mask: decode_counts(r)?,
                    timer_armed: r.bool()?,
                    alive: r.bool()?,
                })
            })?,
            txs: r.seq(|r| {
                Ok(MeshTxSnapshot {
                    sender: r.usize()?,
                    dst: r.u16()?,
                    start: r.u64()?,
                    spans: match r.bool()? {
                        true => Some(r.seq(|r| Ok((r.usize()?, r.usize()?)))?),
                        false => None,
                    },
                })
            })?,
            started: r.seq(SnapReader::usize)?,
            queue: r.seq(decode_event)?,
            next_seq: r.u64()?,
            dispatched: r.u64()?,
            pending: r.seq(|r| Ok((r.usize()?, r.usize()?)))?,
            pending_deadline: r.u64()?,
            last_time: r.u64()?,
            stats: decode_counts(&mut r)?,
            jammer: (r.u8()?, r.u64()?, r.u64()?),
            churn: r.f64()?,
            arq_retries: r.u8()?,
            arq_backoff_milli: r.u64()?,
            adv_rng: [r.u64()?, r.u64()?, r.u64()?, r.u64()?],
            adv_busy_until: r.u64()?,
            adv_sweep_idx: r.u64()?,
            adv_scheduled: r.seq(|r| Ok((r.u64()?, r.u64()?)))?,
            adv_bursts: r.seq(|r| Ok((r.u64()?, r.u64()?, r.u64()?, r.u64()?)))?,
        };
        r.finish()?;
        Ok(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_reader_round_trip_primitives() {
        let mut w = SnapWriter::new(KIND_MESH);
        w.u8(7);
        w.bool(true);
        w.u16(0xBEEF);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.usize(12345);
        w.f64(13.8);
        w.bytes(b"ppr");
        let bytes = w.finish();

        let mut r = SnapReader::new(&bytes, KIND_MESH).unwrap();
        assert_eq!(r.u8().unwrap(), 7);
        assert!(r.bool().unwrap());
        assert_eq!(r.u16().unwrap(), 0xBEEF);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.usize().unwrap(), 12345);
        assert_eq!(r.f64().unwrap(), 13.8);
        assert_eq!(r.bytes().unwrap(), b"ppr");
        r.finish().unwrap();
    }

    #[test]
    fn corruption_is_rejected_by_the_fingerprint() {
        let mut w = SnapWriter::new(KIND_MESH);
        w.u64(42);
        let mut bytes = w.finish();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        match SnapReader::new(&bytes, KIND_MESH) {
            Err(SnapError::BadFingerprint { .. }) => {}
            other => panic!("corrupt bytes accepted: {other:?}"),
        }
    }

    #[test]
    fn header_mismatches_are_named() {
        let w = SnapWriter::new(KIND_MESH);
        let bytes = w.finish();
        assert_eq!(
            SnapReader::new(&bytes, 0).unwrap_err(),
            SnapError::BadKind(KIND_MESH)
        );
        // Kind 1 was the testbed reception snapshot: a byte string of
        // that kind is a named error, not a panic.
        let mut w = SnapWriter::new(1);
        w.u64(42);
        w.seq(&[7u64, 8], |w, &v| w.u64(v));
        assert_eq!(
            MeshSnapshot::from_bytes(&w.finish()).unwrap_err(),
            SnapError::BadKind(1)
        );
        assert_eq!(
            SnapReader::new(&bytes[..10], KIND_MESH).unwrap_err(),
            SnapError::Truncated
        );

        // A wrong version must be refused even with a valid trailer.
        let mut vbytes = bytes.clone();
        vbytes[8] = 99; // version LSB
        let body_len = vbytes.len() - 8;
        let fp = fingerprint(&vbytes[..body_len]).to_le_bytes();
        vbytes[body_len..].copy_from_slice(&fp);
        assert_eq!(
            SnapReader::new(&vbytes, KIND_MESH).unwrap_err(),
            SnapError::BadVersion(99)
        );
    }

    #[test]
    fn events_round_trip_with_keys_verbatim() {
        let cases = [
            (
                EventKey {
                    time: 1,
                    priority: 2,
                    seq: 3,
                },
                SimEvent::TrafficArrival { sender: 4 },
            ),
            (
                EventKey {
                    time: u64::MAX,
                    priority: 0,
                    seq: 9,
                },
                SimEvent::ReceptionComplete { tx: 7, receiver: 8 },
            ),
            (
                EventKey {
                    time: 5,
                    priority: 5,
                    seq: 5,
                },
                SimEvent::ArqTimer { node: 11, round: 2 },
            ),
            (
                EventKey {
                    time: 6,
                    priority: 6,
                    seq: 6,
                },
                SimEvent::JamBurst { jammer: 0 },
            ),
            (
                EventKey {
                    time: 7,
                    priority: 7,
                    seq: 7,
                },
                SimEvent::NodeFault {
                    node: 13,
                    up: false,
                },
            ),
        ];
        let mut w = SnapWriter::new(KIND_MESH);
        for (k, e) in &cases {
            encode_event(&mut w, *k, e);
        }
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes, KIND_MESH).unwrap();
        for (k, e) in &cases {
            let (dk, de) = decode_event(&mut r).unwrap();
            assert_eq!(dk, *k);
            assert_eq!(de, *e);
        }
        r.finish().unwrap();
    }

    #[test]
    fn trailing_garbage_is_an_error() {
        let mut w = SnapWriter::new(KIND_MESH);
        w.u64(1);
        w.u64(2);
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes, KIND_MESH).unwrap();
        assert_eq!(r.u64().unwrap(), 1);
        assert!(matches!(r.finish(), Err(SnapError::Corrupt(_))));
    }
}
