//! Streaming (chunked) scans with carry propagation and verified
//! restart checkpoints.
//!
//! Everything else in this crate scans one in-RAM slice. A
//! [`ScanStream`] instead pulls fixed-size chunks from a
//! [`ChunkSource`] (or borrows them, from a source that holds its input
//! in memory and [lends](ChunkSource::lend) them, such as
//! [`SliceSource`]) and scans each chunk on the parallel engine with
//! the running **carry** folded in through the engine's emit hook, so
//! the concatenated chunk outputs equal the whole-input scan while
//! peak scratch stays proportional to one chunk — constant memory over
//! unbounded input. This is the paper's block decomposition (§3: each
//! unit scans its block, then block totals seed the next) turned
//! sideways: blocks arrive over *time* instead of across *processors*,
//! and the carry plays the role of the block-offset scan.
//!
//! # Restart protocol
//!
//! Chunk boundaries are natural restart points. After every committed
//! chunk the stream can mint a [`CarryCheckpoint`]: chunk index, carry
//! value, and an O(1) digest binding the two. If a mid-stream failure
//! (worker panic, deadline, cancellation) kills the computation, a new
//! stream [`ScanStream::resume`]d from the last checkpoint re-seeks
//! the source and continues from that chunk boundary instead of
//! rescanning from element zero; the digest check turns a corrupted
//! checkpoint into a typed [`Error::CheckpointCorrupt`] instead of a
//! silently mis-seeded tail. A failed [`ScanStream::step`] leaves its
//! chunk uncommitted — a pulled chunk stays buffered, a lent one is
//! borrowed again — so an in-place retry re-scans the same chunk
//! **without re-pulling it** — the chunk-pull counter
//! ([`ScanStream::pulls`]), which counts a lent chunk once, is how
//! tests assert that recovery did not restart from zero.
//!
//! # Directions
//!
//! Forward streams consume chunks in logical input order. Backward
//! streams ([`ScanStream::exclusive_backward`] /
//! [`ScanStream::inclusive_backward`]) consume chunks in **reverse**
//! logical order (last chunk first, each chunk's elements still in
//! forward order): a backward scan must see the tail first, exactly as
//! §3.4 reads the vector into the processors in reverse. The `k`-th
//! output chunk is then the result for the `k`-th-from-last input
//! chunk.
//!
//! Segmented scans stream through [`SegScanStream`], whose carry is
//! the paper's §2.3 `(value, head-seen)` pair — a segment head inside
//! any chunk cuts the carry off exactly as it cuts off a prefix.

use core::marker::PhantomData;

use crate::deadline;
use crate::element::ScanElem;
use crate::error::{Error, Result};
use crate::op::ScanOp;
use crate::scan::{Scan, Typed};

/// Domain separator for checkpoint digests, so a checkpoint digest
/// never coincides with a plain `mix` of the same bits.
const CHECKPOINT_SEED: u64 = 0xCA44_7C8E_C001_D16E;

/// One SplitMix64 step: advance `z` by the 64-bit golden-ratio
/// increment and run the output finalizer. The checkpoint digest is
/// built from it, so its constants are part of the persisted format.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A pull source of input chunks for a [`ScanStream`].
///
/// The stream clears `buf` and calls [`next_chunk`](Self::next_chunk),
/// which appends the next chunk's elements and returns how many it
/// appended; `0` means the input is exhausted. Chunk sizes may vary
/// call to call (a network source delivers what it has), but a given
/// chunk index must always denote the same elements — that stability
/// is what makes [`seek`](Self::seek)-based resume sound.
///
/// A source that already holds its input in memory can instead
/// [`lend`](Self::lend) each chunk by index, and the stream then scans
/// the borrow with no copy. A source lends either every chunk or none:
/// the stream asks `lend` first at every step and pulls through
/// `next_chunk` only when it declines.
pub trait ChunkSource<T> {
    /// Append the next chunk to `buf` (already cleared) and return its
    /// length; `0` ends the stream.
    fn next_chunk(&mut self, buf: &mut Vec<T>) -> usize;

    /// Reposition so the next [`next_chunk`](Self::next_chunk) call
    /// yields chunk `chunk` (0-based). Returns `false` when this
    /// source cannot seek (the default), which makes mid-stream resume
    /// impossible — [`ScanStream::resume`] reports
    /// [`Error::SeekUnsupported`].
    fn seek(&mut self, chunk: u64) -> bool {
        let _ = chunk;
        false
    }

    /// Lend chunk `chunk` (0-based, the index [`seek`](Self::seek)
    /// takes) as a borrowed slice; an empty slice ends the stream.
    /// `None` (the default) declines, and the stream pulls through
    /// [`next_chunk`](Self::next_chunk) instead. The stream may ask for
    /// the same chunk again when a step over it fails.
    fn lend(&self, chunk: u64) -> Option<&[T]> {
        let _ = chunk;
        None
    }
}

/// A [`ChunkSource`] over an in-RAM slice, split into fixed-length
/// chunks (the final chunk may be shorter). Seekable, and it lends
/// every chunk, so a stream over it scans the slice in place.
#[derive(Debug, Clone)]
pub struct SliceSource<'a, T> {
    data: &'a [T],
    chunk_len: usize,
    pos: usize,
}

impl<'a, T> SliceSource<'a, T> {
    /// Source over `data` delivering `chunk_len`-element chunks
    /// (`chunk_len` is clamped to at least 1).
    pub fn new(data: &'a [T], chunk_len: usize) -> Self {
        SliceSource {
            data,
            chunk_len: chunk_len.max(1),
            pos: 0,
        }
    }
}

impl<T: Copy> ChunkSource<T> for SliceSource<'_, T> {
    fn next_chunk(&mut self, buf: &mut Vec<T>) -> usize {
        let end = (self.pos + self.chunk_len).min(self.data.len());
        let chunk = &self.data[self.pos..end];
        buf.extend_from_slice(chunk);
        self.pos = end;
        chunk.len()
    }

    fn seek(&mut self, chunk: u64) -> bool {
        match (chunk as usize).checked_mul(self.chunk_len) {
            Some(pos) if pos <= self.data.len() => {
                self.pos = pos;
                true
            }
            _ => false,
        }
    }

    fn lend(&self, chunk: u64) -> Option<&[T]> {
        let len = self.data.len();
        let start = (chunk as usize)
            .checked_mul(self.chunk_len)
            .map_or(len, |s| s.min(len));
        Some(&self.data[start..start + self.chunk_len.min(len - start)])
    }
}

/// The pull–commit state both streams share: the source, the pull
/// buffer of a source that does not lend, and the chunk counters.
struct Puller<E, C> {
    source: C,
    buf: Vec<E>,
    /// Chunks committed so far: the index of the next chunk.
    chunk: u64,
    /// Chunk `chunk` has been pulled or lent (and counted) but not
    /// committed: set across a failed step, so the retry neither pulls
    /// it again nor counts it twice.
    pulled: bool,
    done: bool,
    pulls: u64,
}

impl<E: Copy, C: ChunkSource<E>> Puller<E, C> {
    fn new(source: C) -> Self {
        Puller {
            source,
            buf: Vec::new(),
            chunk: 0,
            pulled: false,
            done: false,
            pulls: 0,
        }
    }

    /// Run `scan` over chunk `self.chunk`, passing it the chunk and its
    /// index, and commit the chunk only when `scan` succeeds. The chunk
    /// is lent by the source, or pulled into `buf` when it does not
    /// lend. Every call starts with a [`deadline::checkpoint`]. On any
    /// error the chunk stays uncommitted: the next call scans it again,
    /// lent again or from `buf`, without counting a second pull.
    /// `Ok(None)` once the source is exhausted.
    fn step<R, X>(
        &mut self,
        scan: impl FnOnce(&[E], u64) -> core::result::Result<R, X>,
    ) -> Result<Option<R>>
    where
        Error: From<X>,
    {
        if self.done {
            return Ok(None);
        }
        deadline::checkpoint()?;
        let chunk = match self.source.lend(self.chunk) {
            Some(lent) => lent,
            None => {
                if !self.pulled {
                    self.buf.clear();
                    let n = self.source.next_chunk(&mut self.buf);
                    debug_assert_eq!(n, self.buf.len(), "source must append exactly its count");
                }
                &self.buf
            }
        };
        if chunk.is_empty() {
            self.done = true;
            return Ok(None);
        }
        if !self.pulled {
            self.pulled = true;
            self.pulls += 1;
        }
        let out = scan(chunk, self.chunk)?;
        // Commit: the chunk is now folded into the stream state.
        self.chunk += 1;
        self.pulled = false;
        Ok(Some(out))
    }

    /// Seek the source to checkpointed chunk `chunk`, after the
    /// caller verified the checkpoint.
    fn seek(&mut self, chunk: u64) -> Result<()> {
        if !self.source.seek(chunk) && chunk > 0 {
            return Err(Error::SeekUnsupported { chunk });
        }
        self.chunk = chunk;
        self.pulled = false;
        self.done = false;
        Ok(())
    }
}

/// A carry value that can contribute bits to a checkpoint digest.
///
/// [`ScanElem`] is a blanket trait over any `Copy + PartialEq` type,
/// which is too wide to digest generically; this companion trait names
/// the types whose streams can mint [`CarryCheckpoint`]s. It covers
/// every primitive the scan operators run over, plus the segmented
/// `(value, flag)` pair.
pub trait CarryDigest {
    /// A 64-bit fingerprint of the value. Equal values must produce
    /// equal bits; the digest does not need to be collision-free, only
    /// to make accidental corruption overwhelmingly detectable.
    fn digest_bits(&self) -> u64;
}

macro_rules! impl_digest_int {
    ($($t:ty),*) => {$(
        impl CarryDigest for $t {
            #[inline]
            fn digest_bits(&self) -> u64 {
                // Sign-extend then reinterpret, so -1i32 and -1i64
                // digest alike and u64::MAX keeps all its bits.
                *self as i128 as u128 as u64 ^ ((*self as i128 as u128 >> 64) as u64)
            }
        }
    )*};
}

impl_digest_int!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize);

impl CarryDigest for bool {
    #[inline]
    fn digest_bits(&self) -> u64 {
        u64::from(*self)
    }
}

impl CarryDigest for f32 {
    #[inline]
    fn digest_bits(&self) -> u64 {
        u64::from(self.to_bits())
    }
}

impl CarryDigest for f64 {
    #[inline]
    fn digest_bits(&self) -> u64 {
        self.to_bits()
    }
}

impl<T: CarryDigest> CarryDigest for (T, bool) {
    #[inline]
    fn digest_bits(&self) -> u64 {
        mix(self.0.digest_bits()) ^ u64::from(self.1)
    }
}

/// Digest binding a chunk index to a carry value.
fn checkpoint_digest<T: CarryDigest>(chunk: u64, carry: &T) -> u64 {
    mix(carry.digest_bits() ^ mix(chunk ^ CHECKPOINT_SEED))
}

/// A verified restart point: "the scan of everything before chunk
/// `chunk` folds to `carry`".
///
/// The digest is an O(1) integrity check over `(chunk, carry)`. It is
/// computed at mint time and re-checked by [`ScanStream::resume`], so
/// a checkpoint that survived a crash in a file, a message, or plain
/// memory cannot silently resume a stream with a corrupted carry.
/// [`parts`](Self::parts) / [`from_parts`](Self::from_parts) model the
/// persistence round-trip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CarryCheckpoint<T> {
    chunk: u64,
    carry: T,
    digest: u64,
}

impl<T: Copy + CarryDigest> CarryCheckpoint<T> {
    /// Checkpoint for resuming at chunk boundary `chunk` with running
    /// carry `carry`.
    pub fn new(chunk: u64, carry: T) -> Self {
        CarryCheckpoint {
            chunk,
            carry,
            digest: checkpoint_digest(chunk, &carry),
        }
    }

    /// The raw `(chunk, carry, digest)` triple, e.g. for persisting.
    pub fn parts(&self) -> (u64, T, u64) {
        (self.chunk, self.carry, self.digest)
    }

    /// Rebuild a checkpoint from persisted parts. No verification
    /// happens here — [`verify`](Self::verify) (or
    /// [`ScanStream::resume`], which calls it) decides whether the
    /// triple is intact.
    pub fn from_parts(chunk: u64, carry: T, digest: u64) -> Self {
        CarryCheckpoint {
            chunk,
            carry,
            digest,
        }
    }

    /// Does the digest still bind this chunk index to this carry?
    pub fn verify(&self) -> bool {
        self.digest == checkpoint_digest(self.chunk, &self.carry)
    }

    /// Chunk index to resume at (number of chunks already folded in).
    pub fn chunk(&self) -> u64 {
        self.chunk
    }

    /// The running carry at that boundary.
    pub fn carry(&self) -> T {
        self.carry
    }
}

/// A chunked scan with carry propagation: pull a chunk, scan it seeded
/// by the carry, hand out the output chunk, repeat. See the module
/// docs for the restart and direction protocols.
pub struct ScanStream<O, T, C> {
    pull: Puller<T, C>,
    scan: Scan<'static, Typed<O>, T>,
    out: Vec<T>,
    carry: T,
}

impl<O, T, C> ScanStream<O, T, C>
where
    O: ScanOp<T>,
    T: ScanElem,
    C: ChunkSource<T>,
{
    fn with(source: C, scan: Scan<'static, Typed<O>, T>) -> Self {
        ScanStream {
            pull: Puller::new(source),
            scan,
            out: Vec::new(),
            carry: O::identity(),
        }
    }

    /// Streaming exclusive forward scan (the paper's scan).
    pub fn exclusive(source: C) -> Self {
        Self::with(source, Scan::op())
    }

    /// Streaming inclusive forward scan.
    pub fn inclusive(source: C) -> Self {
        Self::with(source, Scan::op().inclusive())
    }

    /// Streaming exclusive backward scan. The source must yield chunks
    /// in reverse logical order (see the module docs).
    pub fn exclusive_backward(source: C) -> Self {
        Self::with(source, Scan::op().backward())
    }

    /// Streaming inclusive backward scan; reverse chunk order as for
    /// [`exclusive_backward`](Self::exclusive_backward).
    pub fn inclusive_backward(source: C) -> Self {
        Self::with(source, Scan::op().backward().inclusive())
    }

    /// Scan the next chunk and return its output slice, or `Ok(None)`
    /// once the source is exhausted. A chunk the source
    /// [lends](ChunkSource::lend) is scanned straight from the borrow;
    /// any other is pulled into the stream's buffer first.
    ///
    /// Each call starts with a [`deadline::checkpoint`], so an expired
    /// or cancelled ambient [`crate::ScanDeadline`] surfaces between
    /// chunks as a typed error — never mid-buffer corruption. On any
    /// error the chunk stays **uncommitted**: calling `step` again
    /// retries the same chunk without pulling it again (a pulled chunk
    /// stays buffered, a lent one is borrowed again), and the carry
    /// still describes the last committed boundary (so a checkpoint
    /// taken now is valid).
    pub fn step(&mut self) -> Result<Option<&[T]>> {
        let (scan, carry) = (self.scan, self.carry);
        let Some((out, carry)) = self
            .pull
            .step(|chunk, _| scan.carry(carry).try_run(chunk))?
        else {
            return Ok(None);
        };
        self.carry = carry;
        self.out = out;
        Ok(Some(&self.out))
    }

    /// Run the stream to exhaustion, handing each output chunk to
    /// `sink`; returns the final carry (the total reduction) and the
    /// number of chunks processed. Errors propagate with the stream
    /// left retryable, exactly as for [`step`](Self::step).
    pub fn process<F: FnMut(&[T])>(&mut self, mut sink: F) -> Result<(T, u64)> {
        while let Some(chunk) = self.step()? {
            sink(chunk);
        }
        Ok((self.carry, self.pull.chunk))
    }

    /// The running carry: the fold of every committed chunk.
    pub fn carry(&self) -> T {
        self.carry
    }

    /// Chunks committed so far.
    pub fn chunks_done(&self) -> u64 {
        self.pull.chunk
    }

    /// Chunks pulled or lent so far, each counted once: a retried chunk
    /// is not counted again — recovery tests pin on this counter to
    /// prove a restart did not re-read the stream from zero.
    pub fn pulls(&self) -> u64 {
        self.pull.pulls
    }

    /// Bytes-free view of current scratch: the stream's peak resident
    /// state is its output buffer plus, for a source that does not
    /// lend, its pull buffer. Their capacity tracks the largest chunk
    /// seen — never the total input length.
    pub fn scratch_len(&self) -> usize {
        self.pull.buf.capacity() + self.out.capacity()
    }
}

impl<O, T, C> ScanStream<O, T, C>
where
    O: ScanOp<T>,
    T: ScanElem + CarryDigest,
    C: ChunkSource<T>,
{
    /// Checkpoint of the last committed chunk boundary. Cheap (O(1));
    /// taking one after every chunk is the intended cadence.
    pub fn checkpoint(&self) -> CarryCheckpoint<T> {
        CarryCheckpoint::new(self.pull.chunk, self.carry)
    }

    /// Resume this (freshly built) stream from `ckpt`: verify the
    /// digest, seek the source to the checkpointed chunk, and adopt
    /// its carry. Returns [`Error::CheckpointCorrupt`] when the digest
    /// fails and [`Error::SeekUnsupported`] when a mid-stream resume
    /// is needed but the source cannot seek.
    pub fn resume(mut self, ckpt: &CarryCheckpoint<T>) -> Result<Self> {
        if !ckpt.verify() {
            return Err(Error::CheckpointCorrupt { chunk: ckpt.chunk });
        }
        self.pull.seek(ckpt.chunk)?;
        self.carry = ckpt.carry;
        Ok(self)
    }
}

/// A chunked **segmented** exclusive scan (paper §2.3). The source
/// yields `(value, head-flag)` pairs; the stream's carry is the
/// segmented pair state, so a head inside any chunk cuts the carry
/// exactly as it cuts a prefix in [`crate::seg_scan`]. Forward only;
/// the global first element is always a segment head whether or not
/// its flag is set, as everywhere in this crate.
pub struct SegScanStream<O, T, C> {
    pull: Puller<(T, bool), C>,
    out: Vec<T>,
    carry: (T, bool),
    _op: PhantomData<O>,
}

impl<O, T, C> SegScanStream<O, T, C>
where
    O: ScanOp<T>,
    T: ScanElem,
    C: ChunkSource<(T, bool)>,
{
    /// Streaming segmented exclusive scan over `source`.
    pub fn new(source: C) -> Self {
        SegScanStream {
            pull: Puller::new(source),
            out: Vec::new(),
            carry: (O::identity(), false),
            _op: PhantomData,
        }
    }

    /// Scan the next chunk of pairs; same contract as
    /// [`ScanStream::step`].
    pub fn step(&mut self) -> Result<Option<&[T]>> {
        let carry = self.carry;
        let Some((out, carry)) = self.pull.step(|buf, chunk| {
            // The global first element is forced to be a head.
            let restart = move |i: usize| buf[i].1 || (chunk == 0 && i == 0);
            let scan = Scan::op::<O, T>();
            scan.contained(|d| scan.pairs(buf.len(), move |i| buf[i].0, restart, Some(carry), d))
        })?
        else {
            return Ok(None);
        };
        self.carry = carry;
        self.out = out;
        Ok(Some(&self.out))
    }

    /// Run to exhaustion; see [`ScanStream::process`].
    pub fn process<F: FnMut(&[T])>(&mut self, mut sink: F) -> Result<((T, bool), u64)> {
        while let Some(chunk) = self.step()? {
            sink(chunk);
        }
        Ok((self.carry, self.pull.chunk))
    }

    /// The running segmented carry pair.
    pub fn carry(&self) -> (T, bool) {
        self.carry
    }

    /// Chunks committed so far.
    pub fn chunks_done(&self) -> u64 {
        self.pull.chunk
    }

    /// Chunks pulled or lent so far (see [`ScanStream::pulls`]).
    pub fn pulls(&self) -> u64 {
        self.pull.pulls
    }
}

impl<O, T, C> SegScanStream<O, T, C>
where
    O: ScanOp<T>,
    T: ScanElem + CarryDigest,
    C: ChunkSource<(T, bool)>,
{
    /// Checkpoint of the last committed chunk boundary.
    pub fn checkpoint(&self) -> CarryCheckpoint<(T, bool)> {
        CarryCheckpoint::new(self.pull.chunk, self.carry)
    }

    /// Resume from a checkpoint; same contract as
    /// [`ScanStream::resume`].
    pub fn resume(mut self, ckpt: &CarryCheckpoint<(T, bool)>) -> Result<Self> {
        if !ckpt.verify() {
            return Err(Error::CheckpointCorrupt { chunk: ckpt.chunk });
        }
        self.pull.seek(ckpt.chunk)?;
        self.carry = ckpt.carry;
        Ok(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{Max, Sum};
    use crate::segmented::{seg_scan, Segments};

    fn collect<O: ScanOp<u64>, C: ChunkSource<u64>>(
        mut s: ScanStream<O, u64, C>,
    ) -> (Vec<u64>, u64) {
        let mut all = Vec::new();
        let (carry, _) = s.process(|c| all.extend_from_slice(c)).unwrap();
        (all, carry)
    }

    #[test]
    fn forward_streams_match_in_ram_scans() {
        let a: Vec<u64> = (0..1000).map(|i| i * 7 % 113).collect();
        for chunk_len in [1, 3, 64, 999, 1000, 5000] {
            let (out, carry) =
                collect::<Sum, _>(ScanStream::exclusive(SliceSource::new(&a, chunk_len)));
            assert_eq!(out, crate::scan::<Sum, _>(&a), "chunk_len {chunk_len}");
            assert_eq!(carry, crate::reduce::<Sum, _>(&a));
            let (out, _) =
                collect::<Max, _>(ScanStream::inclusive(SliceSource::new(&a, chunk_len)));
            assert_eq!(out, crate::inclusive_scan::<Max, _>(&a));
        }
    }

    #[test]
    fn backward_streams_match_with_reverse_chunk_order() {
        let a: Vec<u64> = (0..500).map(|i| i * 13 % 97).collect();
        let chunk_len = 64;
        // Feed chunks in reverse logical order via a reversed manual
        // source: chunk k of the stream is chunk (last-k) of `a`.
        struct Rev<'a> {
            chunks: Vec<&'a [u64]>,
            next: usize,
        }
        impl ChunkSource<u64> for Rev<'_> {
            fn next_chunk(&mut self, buf: &mut Vec<u64>) -> usize {
                if self.next >= self.chunks.len() {
                    return 0;
                }
                buf.extend_from_slice(self.chunks[self.next]);
                self.next += 1;
                self.chunks[self.next - 1].len()
            }
        }
        let chunks: Vec<&[u64]> = a.chunks(chunk_len).rev().collect();
        let mut s = ScanStream::<Sum, _, _>::exclusive_backward(Rev { chunks, next: 0 });
        let mut pieces: Vec<Vec<u64>> = Vec::new();
        while let Some(c) = s.step().unwrap() {
            pieces.push(c.to_vec());
        }
        // Reassemble in forward order: last-pulled piece is the head.
        let out: Vec<u64> = pieces.iter().rev().flatten().copied().collect();
        assert_eq!(out, crate::scan_backward::<Sum, _>(&a));
        assert_eq!(s.carry(), crate::reduce::<Sum, _>(&a));
    }

    #[test]
    fn seg_stream_matches_seg_scan_across_chunk_cuts() {
        let n = 300usize;
        let values: Vec<u64> = (0..n as u64).map(|i| i * 11 % 61).collect();
        // Heads at positions that land mid-chunk, on chunk edges, and
        // nowhere near a cut.
        let flags: Vec<bool> = (0..n).map(|i| i % 37 == 5 || i == 128).collect();
        let segs = Segments::from_flags(flags.clone());
        let want = seg_scan::<Sum, _>(&values, &segs);
        let pairs: Vec<(u64, bool)> = values.iter().copied().zip(flags).collect();
        for chunk_len in [1, 7, 64, 128, 300] {
            let mut s = SegScanStream::<Sum, _, _>::new(SliceSource::new(&pairs, chunk_len));
            let mut out = Vec::new();
            s.process(|c| out.extend_from_slice(c)).unwrap();
            assert_eq!(out, want, "chunk_len {chunk_len}");
        }
    }

    #[test]
    fn checkpoint_roundtrip_and_corruption_detection() {
        let ck = CarryCheckpoint::new(5, 42u64);
        assert!(ck.verify());
        let (chunk, carry, digest) = ck.parts();
        assert!(CarryCheckpoint::from_parts(chunk, carry, digest).verify());
        // Any single-field corruption is caught.
        assert!(!CarryCheckpoint::from_parts(chunk + 1, carry, digest).verify());
        assert!(!CarryCheckpoint::from_parts(chunk, carry ^ 1, digest).verify());
        assert!(!CarryCheckpoint::from_parts(chunk, carry, digest ^ 1).verify());
        // Pair carries digest too (segmented streams).
        let ck = CarryCheckpoint::new(3, (7u64, true));
        assert!(ck.verify());
        assert!(!CarryCheckpoint::from_parts(3, (7u64, false), ck.parts().2).verify());
    }

    /// Exact digests: a checkpoint persisted by an earlier build must
    /// still verify, so the digest formula may never drift.
    #[test]
    fn checkpoint_digests_are_pinned() {
        assert_eq!(
            CarryCheckpoint::new(5, 42u64).parts().2,
            0x7AB0_0E1B_309D_0783
        );
        assert_eq!(
            CarryCheckpoint::new(3, (7u64, true)).parts().2,
            0xD8C8_3E20_E7F6_B375
        );
    }

    #[test]
    fn resume_continues_from_the_checkpointed_boundary() {
        let a: Vec<u64> = (0..640).map(|i| i * 3 % 251).collect();
        let want = crate::scan::<Sum, _>(&a);
        let mut s = ScanStream::<Sum, _, _>::exclusive(SliceSource::new(&a, 100));
        let mut out = Vec::new();
        for _ in 0..3 {
            out.extend_from_slice(s.step().unwrap().unwrap());
        }
        let ckpt = s.checkpoint();
        assert_eq!(ckpt.chunk(), 3);
        drop(s); // the "crash"

        let resumed = ScanStream::<Sum, _, _>::exclusive(SliceSource::new(&a, 100))
            .resume(&ckpt)
            .unwrap();
        let mut resumed = resumed;
        let mut tail = Vec::new();
        let (carry, chunks) = resumed.process(|c| tail.extend_from_slice(c)).unwrap();
        assert_eq!(chunks, 7, "7 total chunk boundaries for 640/100");
        assert_eq!(carry, crate::reduce::<Sum, _>(&a));
        // Only 4 chunks were pulled after resume — not all 7.
        assert_eq!(resumed.pulls(), 4);
        out.extend_from_slice(&tail);
        assert_eq!(out, want);
    }

    #[test]
    fn resume_rejects_corrupt_checkpoint_and_unseekable_source() {
        let a: Vec<u64> = (0..100).collect();
        let good = CarryCheckpoint::new(2, 10u64);
        let (c, v, d) = good.parts();
        let bad = CarryCheckpoint::from_parts(c, v + 1, d);
        let err = ScanStream::<Sum, _, _>::exclusive(SliceSource::new(&a, 10))
            .resume(&bad)
            .map(|_| ())
            .unwrap_err();
        assert_eq!(err, Error::CheckpointCorrupt { chunk: 2 });

        struct NoSeek;
        impl ChunkSource<u64> for NoSeek {
            fn next_chunk(&mut self, _buf: &mut Vec<u64>) -> usize {
                0
            }
        }
        let err = ScanStream::<Sum, _, _>::exclusive(NoSeek)
            .resume(&good)
            .map(|_| ())
            .unwrap_err();
        assert_eq!(err, Error::SeekUnsupported { chunk: 2 });
        // Chunk-0 resume needs no seek: it is a plain fresh start.
        assert!(ScanStream::<Sum, _, _>::exclusive(NoSeek)
            .resume(&CarryCheckpoint::new(0, 0u64))
            .is_ok());
    }

    /// Slice source that cancels the ambient deadline while delivering
    /// chosen chunks: the pull succeeds, then the engine run fails —
    /// a deterministic mid-chunk interruption.
    struct Sabotage<'a> {
        inner: SliceSource<'a, u64>,
        cancel_on_pull: Vec<u64>,
        pull: u64,
    }
    impl ChunkSource<u64> for Sabotage<'_> {
        fn next_chunk(&mut self, buf: &mut Vec<u64>) -> usize {
            let n = self.inner.next_chunk(buf);
            if self.cancel_on_pull.contains(&self.pull) {
                if let Some(d) = deadline::current() {
                    d.cancel();
                }
            }
            self.pull += 1;
            n
        }
    }

    #[test]
    fn failed_step_retries_without_repull_and_commits_once() {
        let a: Vec<u64> = (0..64).collect();
        let src = Sabotage {
            inner: SliceSource::new(&a, 16),
            cancel_on_pull: vec![1], // second chunk's engine run dies
            pull: 0,
        };
        let mut s = ScanStream::<Sum, _, _>::exclusive(src);
        // Chunk 0 is clean.
        let d = crate::ScanDeadline::manual();
        let first = deadline::with_deadline(&d, || s.step().map(|c| c.map(<[u64]>::to_vec)));
        assert!(first.unwrap().is_some());
        assert_eq!((s.pulls(), s.chunks_done()), (1, 1));
        // Chunk 1 is pulled, then the engine run is cancelled: the
        // chunk stays buffered and uncommitted.
        let err = deadline::with_deadline(&d, || s.step().map(|_| ()).unwrap_err());
        assert_eq!(err, Error::Exec(crate::ExecError::Cancelled));
        assert_eq!((s.pulls(), s.chunks_done()), (2, 1));
        // A checkpoint taken now still describes the last committed
        // boundary (chunk 1), not the in-flight chunk.
        assert_eq!(s.checkpoint().chunk(), 1);
        // Clean retry outside the cancelled scope: the SAME chunk is
        // re-scanned without a re-pull, then the stream finishes.
        let mut rest = Vec::new();
        let (carry, chunks) = s.process(|c| rest.extend_from_slice(c)).unwrap();
        assert_eq!(chunks, 4);
        assert_eq!(s.pulls(), 4, "chunk 1 was pulled once despite the retry");
        assert_eq!(carry, crate::reduce::<Sum, _>(&a));
        assert_eq!(rest.len(), 48, "chunks 1..4 re-emitted after the retry");
    }

    /// Lending twin of [`Sabotage`]: lends from a slice and cancels the
    /// ambient deadline while lending one chosen chunk.
    struct LendSabotage<'a> {
        inner: SliceSource<'a, u64>,
        cancel_on_lend: u64,
    }
    impl ChunkSource<u64> for LendSabotage<'_> {
        fn next_chunk(&mut self, _buf: &mut Vec<u64>) -> usize {
            panic!("a lending source is never pulled")
        }
        fn lend(&self, chunk: u64) -> Option<&[u64]> {
            if chunk == self.cancel_on_lend {
                if let Some(d) = deadline::current() {
                    d.cancel();
                }
            }
            self.inner.lend(chunk)
        }
    }

    #[test]
    fn failed_lent_step_retries_the_same_chunk_and_counts_it_once() {
        let a: Vec<u64> = (0..64).map(|i| i * 5 + 1).collect();
        let src = LendSabotage {
            inner: SliceSource::new(&a, 16),
            cancel_on_lend: 1, // second chunk's engine run dies
        };
        let mut s = ScanStream::<Sum, _, _>::exclusive(src);
        let d = crate::ScanDeadline::manual();
        let first = deadline::with_deadline(&d, || s.step().map(|c| c.map(<[u64]>::to_vec)));
        assert_eq!(first.unwrap().unwrap(), crate::scan::<Sum, _>(&a[..16]));
        assert_eq!((s.pulls(), s.chunks_done()), (1, 1));
        // Chunk 1 is lent, then the engine run is cancelled: it stays
        // uncommitted, and the carry and the checkpoint are those of
        // the boundary after chunk 0.
        let err = deadline::with_deadline(&d, || s.step().map(|_| ()).unwrap_err());
        assert_eq!(err, Error::Exec(crate::ExecError::Cancelled));
        assert_eq!((s.pulls(), s.chunks_done()), (2, 1));
        let boundary = crate::reduce::<Sum, _>(&a[..16]);
        assert_eq!(s.carry(), boundary);
        assert_eq!(s.checkpoint(), CarryCheckpoint::new(1, boundary));
        // The retry borrows chunk 1 again, counted once.
        let mut rest = Vec::new();
        let (carry, chunks) = s.process(|c| rest.extend_from_slice(c)).unwrap();
        assert_eq!((chunks, s.pulls()), (4, 4));
        assert_eq!(carry, crate::reduce::<Sum, _>(&a));
        assert_eq!(rest, crate::scan::<Sum, _>(&a)[16..]);
    }

    #[test]
    fn slice_source_lends_every_chunk_by_index() {
        let a: Vec<u64> = (0..10).collect();
        let src = SliceSource::new(&a, 4);
        assert_eq!(src.lend(0), Some(&a[0..4]));
        assert_eq!(src.lend(2), Some(&a[8..10]));
        for past in [3, u64::MAX] {
            assert_eq!(src.lend(past), Some(&[][..]), "chunk {past}");
        }
        // Both streams scan the borrows: their pull buffers stay empty.
        let mut s = ScanStream::<Sum, _, _>::exclusive(src);
        while s.step().unwrap().is_some() {}
        assert_eq!((s.pulls(), s.pull.buf.capacity()), (3, 0));
        let pairs: Vec<(u64, bool)> = a.iter().map(|&v| (v, v == 5)).collect();
        let mut s = SegScanStream::<Sum, u64, _>::new(SliceSource::new(&pairs, 4));
        while s.step().unwrap().is_some() {}
        assert_eq!((s.pulls(), s.pull.buf.capacity()), (3, 0));
    }

    #[test]
    fn scratch_stays_chunk_sized() {
        let a: Vec<u64> = (0..10_000).collect();
        let mut s = ScanStream::<Sum, _, _>::exclusive(SliceSource::new(&a, 128));
        let mut scratch_peak = 0;
        while s.step().unwrap().is_some() {
            scratch_peak = scratch_peak.max(s.scratch_len());
        }
        // Two buffers of one chunk each — nowhere near the input size.
        assert!(scratch_peak <= 4 * 128, "scratch {scratch_peak}");
    }
}
