//! Streaming scan equivalence and recovery properties.
//!
//! The streaming layer must be observationally identical to the
//! in-RAM kernels for every chunking of the input — including
//! 1-element chunks and chunks straddling the parallel threshold —
//! and its checkpoint/resume protocol must restart from the last
//! verified chunk boundary without re-reading the stream from zero.
//! The carry-seeded range kernels under the streams (and under shard
//! jobs) must continue any prefix exactly, cut anywhere.

use proptest::prelude::*;
use scan_core::deadline::{self, ScanDeadline};
use scan_core::parallel::{Schedule, PAR_THRESHOLD};
use scan_core::segmented::seg_combine;
use scan_core::{
    CarryCheckpoint, ChunkSource, Error, ExecError, Max, Scan, ScanOp, ScanStream, SegScanStream,
    Segments, SliceSource, Sum,
};

/// A source delivering chunks of varying lengths (cycling `lens`),
/// not seekable — equivalence must hold for arbitrary chunk shapes.
struct VarSource<'a> {
    data: &'a [u64],
    lens: &'a [usize],
    pos: usize,
    li: usize,
}

impl<'a> VarSource<'a> {
    fn new(data: &'a [u64], lens: &'a [usize]) -> Self {
        VarSource {
            data,
            lens,
            pos: 0,
            li: 0,
        }
    }
}

impl ChunkSource<u64> for VarSource<'_> {
    fn next_chunk(&mut self, buf: &mut Vec<u64>) -> usize {
        if self.pos >= self.data.len() {
            return 0;
        }
        let l = self.lens[self.li % self.lens.len()].max(1);
        self.li += 1;
        let end = (self.pos + l).min(self.data.len());
        buf.extend_from_slice(&self.data[self.pos..end]);
        let n = end - self.pos;
        self.pos = end;
        n
    }
}

/// Pair-yielding variant for segmented streams.
struct VarPairSource<'a> {
    pairs: &'a [(u64, bool)],
    lens: &'a [usize],
    pos: usize,
    li: usize,
}

impl ChunkSource<(u64, bool)> for VarPairSource<'_> {
    fn next_chunk(&mut self, buf: &mut Vec<(u64, bool)>) -> usize {
        if self.pos >= self.pairs.len() {
            return 0;
        }
        let l = self.lens[self.li % self.lens.len()].max(1);
        self.li += 1;
        let end = (self.pos + l).min(self.pairs.len());
        buf.extend_from_slice(&self.pairs[self.pos..end]);
        let n = end - self.pos;
        self.pos = end;
        n
    }
}

/// The chunk boundaries `VarSource` would produce, for building the
/// reverse-order chunk list a backward stream expects.
fn cuts(n: usize, lens: &[usize]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let (mut pos, mut li) = (0usize, 0usize);
    while pos < n {
        let l = lens[li % lens.len()].max(1);
        li += 1;
        let end = (pos + l).min(n);
        out.push((pos, end));
        pos = end;
    }
    out
}

/// A backward source: yields the forward chunks in reverse logical
/// order (each chunk itself in forward element order).
struct RevSource<'a> {
    data: &'a [u64],
    cuts: Vec<(usize, usize)>,
    next: usize,
}

impl ChunkSource<u64> for RevSource<'_> {
    fn next_chunk(&mut self, buf: &mut Vec<u64>) -> usize {
        if self.next >= self.cuts.len() {
            return 0;
        }
        let (s, e) = self.cuts[self.cuts.len() - 1 - self.next];
        self.next += 1;
        buf.extend_from_slice(&self.data[s..e]);
        e - s
    }
}

/// Split `data` at every cut in `cuts` and scan the suffix from the
/// prefix's pair reduce, flat and segmented (with and without a head
/// exactly at the cut), under both schedules: the suffix must be the
/// tail of the whole-input scan and its carry-out the whole input's
/// pair reduce.
fn check_range_cuts<O: ScanOp<u64>>(data: &[u64], flags: &[bool], cuts: &[usize]) {
    let n = data.len();
    for sched in [Schedule::Sequential, Schedule::Pooled] {
        let split = |heads: Option<&[bool]>, cut: usize| {
            let prefix = (&data[..cut], heads.map(|h| &h[..cut]));
            let suffix = (&data[cut..], heads.map(|h| &h[cut..]));
            let carry = Scan::op::<O, u64>()
                .schedule(sched)
                .heads(prefix.1)
                .deadline(None)
                .try_total(prefix.0)
                .unwrap();
            Scan::op::<O, u64>()
                .schedule(sched)
                .heads(suffix.1)
                .carry(carry)
                .deadline(None)
                .try_run(suffix.0)
                .unwrap()
        };
        let flat_want = scan_core::scan::<O, _>(data);
        let flat_total = (scan_core::reduce::<O, _>(data), false);
        for &cut in cuts {
            let (tail, carry) = split(None, cut);
            prop_assert_eq!(&tail[..], &flat_want[cut..], "flat cut={} {:?}", cut, sched);
            prop_assert_eq!(carry, flat_total, "flat cut={} {:?}", cut, sched);

            for head_at_cut in [false, true] {
                let mut heads = flags[..n].to_vec();
                if cut < n {
                    heads[cut] = head_at_cut;
                }
                let want =
                    scan_core::seg_scan::<O, u64>(data, &Segments::from_flags(heads.clone()));
                let total = data
                    .iter()
                    .zip(&heads)
                    .fold((O::identity(), false), |acc, (&v, &h)| {
                        seg_combine::<O, u64>(acc, (v, h))
                    });
                let (tail, carry) = split(Some(&heads), cut);
                prop_assert_eq!(&tail[..], &want[cut..], "seg cut={} {:?}", cut, sched);
                prop_assert_eq!(carry, total, "seg cut={} {:?}", cut, sched);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The range kernels continue a prefix exactly at every cut point.
    #[test]
    fn range_scan_continues_from_prefix_reduce(
        data in proptest::collection::vec(0u64..10_000, 0..100),
        flags in proptest::collection::vec(any::<bool>(), 100),
    ) {
        let cuts: Vec<usize> = (0..=data.len()).collect();
        check_range_cuts::<Sum>(&data, &flags, &cuts);
        check_range_cuts::<Max>(&data, &flags, &cuts);
    }

    /// Forward streams equal the in-RAM kernels for every chunking,
    /// both operators, exclusive and inclusive.
    #[test]
    fn forward_stream_equals_in_ram(
        data in proptest::collection::vec(0u64..10_000, 0..600),
        lens in proptest::collection::vec(1usize..64, 1..8),
    ) {
        let mut got = Vec::new();
        let mut s = ScanStream::<Sum, u64, _>::exclusive(VarSource::new(&data, &lens));
        let (total, _) = s.process(|c| got.extend_from_slice(c)).unwrap();
        prop_assert_eq!(&got, &scan_core::scan::<Sum, _>(&data));
        prop_assert_eq!(total, data.iter().fold(0u64, |a, &b| a.wrapping_add(b)));

        got.clear();
        let mut s = ScanStream::<Max, u64, _>::exclusive(VarSource::new(&data, &lens));
        s.process(|c| got.extend_from_slice(c)).unwrap();
        prop_assert_eq!(&got, &scan_core::scan::<Max, _>(&data));

        got.clear();
        let mut s = ScanStream::<Sum, u64, _>::inclusive(VarSource::new(&data, &lens));
        s.process(|c| got.extend_from_slice(c)).unwrap();
        prop_assert_eq!(&got, &scan_core::inclusive_scan::<Sum, _>(&data));
    }

    /// Backward streams (reverse chunk order) equal the in-RAM
    /// backward kernels.
    #[test]
    fn backward_stream_equals_in_ram(
        data in proptest::collection::vec(0u64..10_000, 0..600),
        lens in proptest::collection::vec(1usize..64, 1..8),
    ) {
        let cuts = cuts(data.len(), &lens);
        let mk = || RevSource { data: &data, cuts: cuts.clone(), next: 0 };

        // Output chunks arrive tail-first; reassemble in logical order.
        let mut parts: Vec<Vec<u64>> = Vec::new();
        let mut s = ScanStream::<Sum, u64, _>::exclusive_backward(mk());
        s.process(|c| parts.push(c.to_vec())).unwrap();
        parts.reverse();
        let got: Vec<u64> = parts.concat();
        prop_assert_eq!(&got, &scan_core::scan_backward::<Sum, _>(&data));

        let mut parts: Vec<Vec<u64>> = Vec::new();
        let mut s = ScanStream::<Max, u64, _>::inclusive_backward(mk());
        s.process(|c| parts.push(c.to_vec())).unwrap();
        parts.reverse();
        let got: Vec<u64> = parts.concat();
        prop_assert_eq!(&got, &scan_core::inclusive_scan_backward::<Max, _>(&data));
    }

    /// Segmented streams equal the in-RAM segmented kernel: a head
    /// anywhere inside a chunk cuts the carry exactly as in
    /// [`scan_core::seg_scan`].
    #[test]
    fn segmented_stream_equals_in_ram(
        data in proptest::collection::vec(0u64..10_000, 0..600),
        flags in proptest::collection::vec(any::<bool>(), 600),
        lens in proptest::collection::vec(1usize..64, 1..8),
    ) {
        let heads = &flags[..data.len()];
        let pairs: Vec<(u64, bool)> =
            data.iter().copied().zip(heads.iter().copied()).collect();
        let segs = Segments::from_flags(heads.to_vec());

        let mut got = Vec::new();
        let mut s = SegScanStream::<Sum, u64, _>::new(VarPairSource {
            pairs: &pairs,
            lens: &lens,
            pos: 0,
            li: 0,
        });
        s.process(|c| got.extend_from_slice(c)).unwrap();
        prop_assert_eq!(&got, &scan_core::seg_scan::<Sum, u64>(&data, &segs));

        got.clear();
        let mut s = SegScanStream::<Max, u64, _>::new(VarPairSource {
            pairs: &pairs,
            lens: &lens,
            pos: 0,
            li: 0,
        });
        s.process(|c| got.extend_from_slice(c)).unwrap();
        prop_assert_eq!(&got, &scan_core::seg_scan::<Max, u64>(&data, &segs));
    }

    /// A stream interrupted after any prefix of chunks and resumed
    /// from its checkpoint on a fresh source produces the same output
    /// as the uninterrupted stream — and the resumed source is only
    /// pulled for the remaining chunks.
    #[test]
    fn checkpoint_resume_is_seamless(
        data in proptest::collection::vec(0u64..10_000, 1..600),
        chunk_len in 1usize..64,
        stop_frac in 0.0f64..1.0,
    ) {
        let want = scan_core::scan::<Sum, _>(&data);
        let nchunks = data.len().div_ceil(chunk_len);
        let stop = ((nchunks as f64) * stop_frac) as u64;

        // Run the head of the stream, checkpointing every chunk.
        let mut got = Vec::new();
        let mut s =
            ScanStream::<Sum, u64, _>::exclusive(SliceSource::new(&data, chunk_len));
        let mut ckpt = s.checkpoint();
        while s.chunks_done() < stop {
            let Some(chunk) = s.step().unwrap() else { break };
            got.extend_from_slice(chunk);
            ckpt = s.checkpoint();
        }
        drop(s); // the interruption

        // Resume on a brand-new source from the last checkpoint.
        let mut r = ScanStream::<Sum, u64, _>::exclusive(SliceSource::new(&data, chunk_len))
            .resume(&ckpt)
            .unwrap();
        r.process(|c| got.extend_from_slice(c)).unwrap();
        prop_assert_eq!(&got, &want);
        // Only the chunks after the checkpoint were re-read.
        prop_assert_eq!(r.pulls(), (nchunks as u64) - ckpt.chunk());
    }
}

/// A corrupted checkpoint is rejected by its digest before any data
/// is read, and a mid-stream resume on a non-seekable source is a
/// typed error rather than silent recomputation.
#[test]
fn corrupt_or_unseekable_checkpoints_are_typed_errors() {
    let data: Vec<u64> = (0..100).collect();
    let mut s = ScanStream::<Sum, u64, _>::exclusive(SliceSource::new(&data, 16));
    s.step().unwrap();
    s.step().unwrap();
    let good = s.checkpoint();
    assert!(good.verify());
    let (chunk, carry, digest) = good.parts();

    // Flip the carry without re-digesting: verification must fail.
    let bad = CarryCheckpoint::from_parts(chunk, carry ^ 1, digest);
    assert!(!bad.verify());
    let r = ScanStream::<Sum, u64, _>::exclusive(SliceSource::new(&data, 16)).resume(&bad);
    assert!(matches!(r, Err(Error::CheckpointCorrupt { chunk: 2 })));

    // Same digest, tampered chunk index.
    let bad = CarryCheckpoint::from_parts(chunk + 1, carry, digest);
    assert!(!bad.verify());

    // A non-seekable source cannot resume mid-stream.
    let r = ScanStream::<Sum, u64, _>::exclusive(VarSource::new(&data, &[16])).resume(&good);
    assert!(matches!(r, Err(Error::SeekUnsupported { chunk: 2 })));
}

/// Above the parallel threshold `Pooled` takes the blocked path (on a
/// pool wider than one lane); cuts on and around block boundaries
/// must still continue exactly.
#[test]
fn range_scan_continues_on_the_blocked_path() {
    let n = 2 * PAR_THRESHOLD + 7;
    let data: Vec<u64> = (0..n as u64).map(|i| (i * 7919 + 13) % 1009).collect();
    let flags: Vec<bool> = (0..n).map(|i| i % 97 == 5).collect();
    let cuts = [0, 1, PAR_THRESHOLD - 1, PAR_THRESHOLD + 3, n - 1, n];
    check_range_cuts::<Sum>(&data, &flags, &cuts);
    check_range_cuts::<Max>(&data, &flags, &cuts);
}

/// The range kernels honor the deadline they are given with a typed
/// `Cancelled`, and reject a mismatched head slice with a typed error.
#[test]
fn range_kernels_report_typed_errors() {
    let data: Vec<u64> = (0..100).collect();
    let heads = vec![false; data.len()];
    let d = ScanDeadline::manual();
    d.cancel();
    let cancelled = Error::Exec(ExecError::Cancelled);
    for sched in [Schedule::Sequential, Schedule::Pooled] {
        for h in [None, Some(&heads[..])] {
            let got = Scan::op::<Sum, u64>()
                .schedule(sched)
                .heads(h)
                .carry((0, false))
                .deadline(Some(&d))
                .try_run(&data);
            assert_eq!(got.unwrap_err(), cancelled);
            let got = Scan::op::<Max, u64>()
                .schedule(sched)
                .heads(h)
                .deadline(Some(&d))
                .try_total(&data);
            assert_eq!(got.unwrap_err(), cancelled);
        }
    }
    let (seq, short) = (Schedule::Sequential, Some(&heads[1..]));
    let mismatch = Error::LengthMismatch {
        expected: 100,
        actual: 99,
    };
    let got = Scan::op::<Sum, u64>()
        .schedule(seq)
        .heads(short)
        .carry((0, false))
        .deadline(None)
        .try_run(&data);
    assert_eq!(got.unwrap_err(), mismatch);
    let got = Scan::op::<Sum, u64>()
        .schedule(seq)
        .heads(short)
        .deadline(None)
        .try_total(&data);
    assert_eq!(got.unwrap_err(), mismatch);
}

/// A source whose pull trips a cancellation *after* handing out the
/// chunk: the failed `step` must keep the chunk buffered so the retry
/// does not re-pull.
struct TrippingSource<'a> {
    inner: SliceSource<'a, u64>,
    trip_on_pull: u64,
    pulls: u64,
    deadline: ScanDeadline,
}

impl ChunkSource<u64> for TrippingSource<'_> {
    fn next_chunk(&mut self, buf: &mut Vec<u64>) -> usize {
        self.pulls += 1;
        if self.pulls == self.trip_on_pull {
            self.deadline.cancel();
        }
        self.inner.next_chunk(buf)
    }
}

#[test]
fn failed_step_retries_without_repulling() {
    let data: Vec<u64> = (0..200).collect();
    let d = ScanDeadline::manual();
    let source = TrippingSource {
        inner: SliceSource::new(&data, 32),
        trip_on_pull: 3,
        pulls: 0,
        deadline: d.clone(),
    };
    let mut s = ScanStream::<Sum, u64, _>::exclusive(source);

    let mut got = Vec::new();
    let err = deadline::with_deadline(&d, || loop {
        match s.step() {
            Ok(Some(c)) => got.extend_from_slice(c),
            Ok(None) => panic!("stream must fail at the tripped pull"),
            Err(e) => break e,
        }
    });
    assert_eq!(err, Error::Exec(scan_core::ExecError::Cancelled));
    // Two chunks committed; the third was pulled but not committed.
    assert_eq!(s.chunks_done(), 2);
    assert_eq!(s.pulls(), 3);
    // The carry still describes the last committed boundary, so a
    // checkpoint taken mid-failure is valid.
    let ckpt = s.checkpoint();
    assert!(ckpt.verify());
    assert_eq!(ckpt.chunk(), 2);

    // Retry outside the cancelled scope: same chunk, no re-pull.
    s.process(|c| got.extend_from_slice(c)).unwrap();
    assert_eq!(s.pulls(), data.len().div_ceil(32) as u64);
    assert_eq!(got, scan_core::scan::<Sum, _>(&data));
}

/// An expired ambient deadline surfaces between chunks as a typed
/// error and the stream stays resumable afterwards.
#[test]
fn deadline_interrupts_between_chunks() {
    let data: Vec<u64> = (0..100).collect();
    let d = ScanDeadline::manual();
    let mut s = ScanStream::<Sum, u64, _>::exclusive(SliceSource::new(&data, 10));
    deadline::with_deadline(&d, || {
        s.step().unwrap();
        d.cancel();
        assert_eq!(
            s.step().unwrap_err(),
            Error::Exec(scan_core::ExecError::Cancelled)
        );
    });
    let mut got: Vec<u64> = scan_core::scan::<Sum, _>(&data[..10]);
    s.process(|c| got.extend_from_slice(c)).unwrap();
    assert_eq!(got, scan_core::scan::<Sum, _>(&data));
}

/// Chunks straddling the parallel threshold: with the override pinned
/// low, every chunk takes the blocked parallel path, and equivalence
/// must still hold chunk by chunk.
#[test]
fn chunks_straddling_par_threshold_stay_equivalent() {
    scan_core::parallel::set_par_threshold_override(64);
    let data: Vec<u64> = (0..1000).map(|i| (i * 13 + 7) % 997).collect();
    for chunk_len in [1usize, 63, 64, 65, 128, 400] {
        let mut got = Vec::new();
        let mut s = ScanStream::<Sum, u64, _>::exclusive(SliceSource::new(&data, chunk_len));
        s.process(|c| got.extend_from_slice(c)).unwrap();
        assert_eq!(
            got,
            scan_core::scan::<Sum, _>(&data),
            "chunk_len {chunk_len}"
        );
    }
    scan_core::parallel::set_par_threshold_override(0);
}

/// A generating source: no backing array, so the stream's resident
/// state is the only memory in play.
struct Ramp {
    next: u64,
    remaining: u64,
    chunk: usize,
}

impl ChunkSource<u64> for Ramp {
    fn next_chunk(&mut self, buf: &mut Vec<u64>) -> usize {
        let n = (self.remaining.min(self.chunk as u64)) as usize;
        buf.extend((0..n as u64).map(|i| self.next + i));
        self.next += n as u64;
        self.remaining -= n as u64;
        n
    }
}

fn constant_memory_run(total: u64, chunk: usize) {
    let mut s = ScanStream::<Sum, u64, _>::exclusive(Ramp {
        next: 0,
        remaining: total,
        chunk,
    });
    let mut seen = 0u64;
    let (carry, chunks) = s
        .process(|c| {
            // Exclusive +-scan of 0,1,2,...: out[g] = g*(g-1)/2.
            let g = seen;
            assert_eq!(c[0], g.wrapping_mul(g.wrapping_sub(1)) / 2);
            seen += c.len() as u64;
        })
        .unwrap();
    // Vec capacity never shrinks, so post-run scratch is the peak.
    let peak = s.scratch_len();
    assert_eq!(seen, total);
    assert_eq!(chunks, total.div_ceil(chunk as u64));
    assert_eq!(carry, total.wrapping_mul(total - 1) / 2);
    // Constant memory: resident scratch tracks the chunk length, never
    // the total input (2 buffers + amortized-growth slack).
    assert!(
        peak <= 4 * chunk,
        "scratch {peak} exceeds chunk-bounded ceiling for chunk {chunk}"
    );
}

/// Constant-memory streaming over 2^22 elements (always on).
#[test]
fn streaming_is_constant_memory_4m() {
    constant_memory_run(1 << 22, 1 << 16);
}

/// Constant-memory streaming over 2^28 elements. Release-only: the
/// debug-profile kernels are too slow for a quarter-billion elements.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn streaming_is_constant_memory_256m() {
    constant_memory_run(1 << 28, 1 << 20);
}

/// Forwards only `next_chunk` and `seek`, so a stream over it copies
/// every chunk into its pull buffer even when the inner source lends.
struct CopyOnly<C>(C);

impl<T, C: ChunkSource<T>> ChunkSource<T> for CopyOnly<C> {
    fn next_chunk(&mut self, buf: &mut Vec<T>) -> usize {
        self.0.next_chunk(buf)
    }

    fn seek(&mut self, chunk: u64) -> bool {
        self.0.seek(chunk)
    }
}

/// Step a stream to exhaustion, recording after every step the output
/// chunk, the carry, `chunks_done`, `pulls` and the checkpoint.
macro_rules! steps {
    ($s:expr) => {{
        let s = &mut $s;
        let mut steps = Vec::new();
        while let Some(c) = s.step().unwrap() {
            let c = c.to_vec();
            steps.push((c, s.carry(), s.chunks_done(), s.pulls(), s.checkpoint()));
        }
        steps
    }};
}

/// Run the stream built by `$lend` (over a lending `SliceSource`) and
/// by `$copy` (the same source behind `CopyOnly`) side by side: every
/// step must match, and so must a resume of each from the checkpoint
/// in the middle. Returns the concatenated output.
macro_rules! lend_vs_copy {
    ($ctx:expr, $lend:expr, $copy:expr) => {{
        let (mut lend, mut copy) = ($lend, $copy);
        let (full, copied) = (steps!(lend), steps!(copy));
        assert!(full == copied, "{}: full pass", $ctx);
        let ckpt = match full.len() / 2 {
            0 => $lend.checkpoint(),
            mid => full[mid - 1].4,
        };
        let mut lend = $lend.resume(&ckpt).unwrap();
        let mut copy = $copy.resume(&ckpt).unwrap();
        let (tail, copied) = (steps!(lend), steps!(copy));
        assert!(tail == copied, "{}: resumed at {}", $ctx, ckpt.chunk());
        let skip = ckpt.chunk() as usize;
        assert_eq!(tail.len(), full.len() - skip, "{}", $ctx);
        for (k, (t, f)) in tail.iter().zip(&full[skip..]).enumerate() {
            assert!(
                (&t.0, t.1, t.2) == (&f.0, f.1, f.2),
                "{}: chunk {}",
                $ctx,
                k
            );
            assert_eq!(t.3, k as u64 + 1, "{}: pulls after resume", $ctx);
        }
        full.into_iter().flat_map(|s| s.0).collect::<Vec<u64>>()
    }};
}

/// A stream over a lending `SliceSource` and one over the same slice
/// through a copy-only wrapper are indistinguishable, step by step:
/// the same chunks, carries, `chunks_done`, `pulls` and checkpoints,
/// also after a resume from a mid-stream checkpoint — for chunks of 1,
/// 7, `PAR_THRESHOLD ± 1`, `n` and more than `n` elements, and for an
/// empty input.
#[test]
fn lending_and_copying_streams_agree_step_by_step() {
    for n in [0, 2 * PAR_THRESHOLD + 3] {
        let data: Vec<u64> = (0..n as u64).map(|i| (i * 7919 + 13) % 1009).collect();
        let flags: Vec<bool> = (0..n).map(|i| i % 97 == 5).collect();
        let pairs: Vec<(u64, bool)> = data.iter().copied().zip(flags.iter().copied()).collect();
        let segs = Segments::from_flags(flags.clone());
        for len in [1, 7, PAR_THRESHOLD - 1, PAR_THRESHOLD + 1, n, n + 5] {
            let src = || SliceSource::new(&data, len);
            let ctx = format!("n={n} len={len}");
            let got = lend_vs_copy!(
                format!("{ctx} exclusive"),
                ScanStream::<Sum, u64, _>::exclusive(src()),
                ScanStream::<Sum, u64, _>::exclusive(CopyOnly(src()))
            );
            assert_eq!(got, scan_core::scan::<Sum, _>(&data), "{ctx}");
            let got = lend_vs_copy!(
                format!("{ctx} inclusive"),
                ScanStream::<Max, u64, _>::inclusive(src()),
                ScanStream::<Max, u64, _>::inclusive(CopyOnly(src()))
            );
            assert_eq!(got, scan_core::inclusive_scan::<Max, _>(&data), "{ctx}");
            let got = lend_vs_copy!(
                format!("{ctx} segmented"),
                SegScanStream::<Sum, u64, _>::new(SliceSource::new(&pairs, len)),
                SegScanStream::<Sum, u64, _>::new(CopyOnly(SliceSource::new(&pairs, len)))
            );
            assert_eq!(got, scan_core::seg_scan::<Sum, u64>(&data, &segs), "{ctx}");
        }
    }
}
