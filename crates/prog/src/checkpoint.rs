//! Interpreter checkpoints and functional fast-forward.
//!
//! The paper simulates 100M instructions per benchmark — far too much
//! to run through the detailed timing model for every (benchmark,
//! machine, scheme) combination. The sampled-simulation subsystem
//! (DESIGN.md §7) instead fast-forwards the *functional* interpreter
//! over the whole window, snapshotting the architectural state every
//! `K` instructions; the timing simulator later warm-starts from any
//! snapshot and measures a short detailed interval. Snapshots are cheap
//! because [`Memory`](crate::Memory) pages are copy-on-write: a
//! [`Checkpoint`] holds the register file by value and shares every
//! memory page with its neighbours until one of them diverges.

use crate::interp::{Interp, Memory};
use crate::Program;

/// A complete architectural snapshot of an [`Interp`]: registers,
/// memory (shared pages), PC cursor and dynamic-instruction count.
///
/// Restoring via [`Interp::resume`] reproduces the remaining dynamic
/// stream bit-for-bit (property-tested in `tests/prop_checkpoint.rs`).
///
/// # Example
///
/// ```
/// use dca_prog::{parse_asm, Interp, Memory};
/// let p = parse_asm("e:\n li r1, #3\nl:\n add r1, r1, #-1\n bne r1, r0, l\n halt")?;
/// let mut a = Interp::new(&p, Memory::new());
/// a.next(); // execute `li`
/// let ckpt = a.checkpoint();
/// let rest_a: Vec<_> = a.collect();
/// let rest_b: Vec<_> = Interp::resume(&p, &ckpt).collect();
/// assert_eq!(rest_a, rest_b);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct Checkpoint {
    pub(crate) int_regs: [i64; 32],
    pub(crate) fp_regs: [f64; 32],
    pub(crate) mem: Memory,
    pub(crate) cursor: Option<u32>,
    pub(crate) seq: u64,
    pub(crate) halted: bool,
    /// Opaque encoded microarchitectural snapshot attached by a
    /// [`WarmHook`] during [`fast_forward_with`] (continuous warming,
    /// DESIGN.md §9). `dca-prog` never interprets the bytes — the
    /// codec lives in `dca-uarch` and the consumer in `dca-sim` —
    /// which keeps this crate free of timing-model dependencies.
    /// `Arc`-shared so cloning a checkpoint stays cheap.
    pub(crate) uarch: Option<Arc<Vec<u8>>>,
}

impl Checkpoint {
    /// Dynamic instructions executed before this snapshot was taken.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The memory image at the snapshot (shared copy-on-write pages).
    pub fn memory(&self) -> &Memory {
        &self.mem
    }

    /// `true` if the program had already reached `halt`.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// The encoded microarchitectural snapshot attached during a warmed
    /// fast-forward, if any.
    pub fn uarch(&self) -> Option<&[u8]> {
        self.uarch.as_ref().map(|b| b.as_slice())
    }

    /// Attaches an encoded microarchitectural snapshot.
    pub fn with_uarch(mut self, blob: Vec<u8>) -> Checkpoint {
        self.uarch = Some(Arc::new(blob));
        self
    }

    fn with_uarch_opt(mut self, blob: Option<Vec<u8>>) -> Checkpoint {
        self.uarch = blob.map(Arc::new);
        self
    }
}

/// Observer of the functional fast-forward stream: [`fast_forward_with`]
/// feeds it every retired instruction and asks it for an (opaque,
/// already-encoded) microarchitectural snapshot at each checkpoint.
///
/// The hook never influences execution — the dynamic stream and the
/// checkpoint grid are bit-identical with or without one. `dca-sim`'s
/// `ContinuousWarmer` is the canonical implementation: it streams the
/// accesses through live cache/branch-predictor models so every
/// checkpoint carries SMARTS-style continuously-warmed state.
pub trait WarmHook {
    /// Observes one retired instruction of the functional stream.
    fn observe(&mut self, d: &crate::DynInst);

    /// Produces the encoded snapshot to attach to a checkpoint taken at
    /// the current stream position (`None` attaches nothing).
    fn snapshot(&mut self) -> Option<Vec<u8>>;
}

/// The no-op hook: plain architectural checkpoints, exactly the
/// pre-continuous-warming behaviour of [`fast_forward`].
pub struct NoWarmHook;

impl WarmHook for NoWarmHook {
    fn observe(&mut self, _d: &crate::DynInst) {}

    fn snapshot(&mut self) -> Option<Vec<u8>> {
        None
    }
}

/// Result of a [`fast_forward`] pass over a program.
#[derive(Clone, Debug)]
pub struct FastForward {
    /// Snapshots at dynamic-instruction counts `0, K, 2K, …` (the first
    /// entry is always the initial state).
    pub checkpoints: Vec<Checkpoint>,
    /// Total dynamic instructions executed (≤ `max`).
    pub total_insts: u64,
    /// Whether the program reached `halt` within the budget.
    pub halted: bool,
}

/// Executes `prog` functionally for at most `max` dynamic instructions,
/// snapshotting every `every` instructions. A final checkpoint exactly
/// at the end of the stream is *not* recorded (there would be nothing
/// left to simulate from it).
///
/// # Panics
///
/// Panics if `every == 0`.
pub fn fast_forward(prog: &Program, mem: Memory, every: u64, max: u64) -> FastForward {
    fast_forward_with(prog, mem, every, max, &mut NoWarmHook)
}

/// [`fast_forward`] with a pluggable [`WarmHook`]: the hook observes
/// every retired instruction and its encoded snapshot is attached to
/// each checkpoint (including the initial, cold one at sequence 0).
/// The dynamic stream and the checkpoint grid are identical to the
/// hook-free pass — a hook only *adds* microarchitectural state.
///
/// This is [`CheckpointStream`] collected: consumers that want each
/// checkpoint the moment it is taken iterate the stream instead.
///
/// # Panics
///
/// Panics if `every == 0`.
pub fn fast_forward_with(
    prog: &Program,
    mem: Memory,
    every: u64,
    max: u64,
    hook: &mut dyn WarmHook,
) -> FastForward {
    let mut stream = CheckpointStream::new(prog, mem, every, max, hook);
    let checkpoints = stream.by_ref().collect();
    FastForward {
        checkpoints,
        total_insts: stream.insts(),
        halted: stream.halted(),
    }
}

/// The functional fast-forward as an iterator: yields the checkpoints
/// at dynamic-instruction counts `0, K, 2K, …` one by one, each the
/// moment the interpreter reaches it, so a consumer can start on
/// checkpoint `k` while the pass is still running towards `k + 1`.
/// Collecting the whole stream is exactly [`fast_forward_with`].
///
/// Dropping the stream early stops the interpreter there; the
/// instructions executed so far are still counted (the
/// `prog.fast_forward` span and the `ff_insts_total` metric cover
/// the stream's whole life, however it ends).
///
/// # Example
///
/// ```
/// use dca_prog::{fast_forward, parse_asm, CheckpointStream, Memory, NoWarmHook};
/// let p = parse_asm("e:\n li r1, #100\nl:\n add r1, r1, #-1\n bne r1, r0, l\n halt")?;
/// let mut hook = NoWarmHook;
/// let mut stream = CheckpointStream::new(&p, Memory::new(), 50, u64::MAX, &mut hook);
/// let first_two: Vec<u64> = stream.by_ref().take(2).map(|c| c.seq()).collect();
/// assert_eq!(first_two, [0, 50]);
/// assert_eq!(stream.insts(), 50); // stopped at the second checkpoint
/// let all = fast_forward(&p, Memory::new(), 50, u64::MAX);
/// assert_eq!(all.checkpoints.len(), 5);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct CheckpointStream<'p, 'h> {
    it: Interp<'p>,
    hook: &'h mut dyn WarmHook,
    every: u64,
    max: u64,
    /// Sequence number of the next checkpoint to yield; `None` before
    /// the initial one.
    next_ckpt: Option<u64>,
    taken: usize,
    span: dca_obs::Span,
}

impl<'p, 'h> CheckpointStream<'p, 'h> {
    /// Starts a fast-forward of `prog` from `mem` for at most `max`
    /// dynamic instructions, checkpointing every `every`. A final
    /// checkpoint exactly at the end of the stream is *not* yielded
    /// (there would be nothing left to simulate from it).
    ///
    /// # Panics
    ///
    /// Panics if `every == 0`.
    pub fn new(
        prog: &'p Program,
        mem: Memory,
        every: u64,
        max: u64,
        hook: &'h mut dyn WarmHook,
    ) -> CheckpointStream<'p, 'h> {
        assert!(every > 0, "checkpoint interval must be non-zero");
        CheckpointStream {
            it: Interp::new(prog, mem).with_fuel(max),
            hook,
            every,
            max,
            next_ckpt: None,
            taken: 0,
            span: dca_obs::span("prog", "prog.fast_forward").arg("every", every),
        }
    }

    /// Dynamic instructions executed so far (the whole window once the
    /// stream is exhausted).
    pub fn insts(&self) -> u64 {
        self.it.seq()
    }

    /// Whether the program reached `halt`.
    pub fn halted(&self) -> bool {
        self.it.halted()
    }

    fn take(&mut self) -> Checkpoint {
        self.taken += 1;
        self.it.checkpoint().with_uarch_opt(self.hook.snapshot())
    }
}

impl Iterator for CheckpointStream<'_, '_> {
    type Item = Checkpoint;

    fn next(&mut self) -> Option<Checkpoint> {
        let Some(next) = self.next_ckpt else {
            self.next_ckpt = Some(self.every);
            return Some(self.take());
        };
        while let Some(d) = self.it.next() {
            self.hook.observe(&d);
            if self.it.seq() == next && next < self.max {
                self.next_ckpt = Some(next + self.every);
                return Some(self.take());
            }
        }
        None
    }
}

impl Drop for CheckpointStream<'_, '_> {
    fn drop(&mut self) {
        self.span.add_arg("insts", self.it.seq());
        self.span.add_arg("checkpoints", self.taken);
        dca_obs::metrics().ff_insts_total.add(self.it.seq());
    }
}

// ---------------------------------------------------------------------
// Checkpoint serialization (the record payloads of `dca-store`)
// ---------------------------------------------------------------------

/// Version of the functional interpreter's observable semantics.
///
/// Bump this whenever a change alters the dynamic instruction stream a
/// program produces (new opcodes, changed arithmetic, different memory
/// semantics, checkpoint grid placement). The persistent checkpoint
/// store records it in every file header; a mismatch invalidates the
/// file (it decodes state the current interpreter would never have
/// produced).
pub const INTERP_VERSION: u32 = 1;

/// Malformed checkpoint/page record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CodecError(pub String);

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "checkpoint codec: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

use std::collections::HashMap;
use std::sync::Arc;

use crate::interp::PAGE_BYTES;

const PAGE_WORDS: usize = PAGE_BYTES / 8;
const PAGE_BITMAP_BYTES: usize = PAGE_WORDS / 8;

fn err(msg: &str) -> CodecError {
    CodecError(msg.to_string())
}

/// Little-endian reader over a record payload.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self.pos.checked_add(n).ok_or_else(|| err("length overflow"))?;
        if end > self.buf.len() {
            return Err(err("record truncated"));
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.bytes(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().expect("8 bytes")))
    }

    fn finish(self) -> Result<(), CodecError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(err("trailing bytes in record"))
        }
    }
}

/// Encodes one 4 KiB page as a nonzero-word bitmap followed by the
/// nonzero 64-bit words in order — compact for the sparse pages of the
/// mini-ISA workloads, at most `PAGE_BYTES + 64` bytes for dense ones.
fn encode_page(page: &[u8; PAGE_BYTES]) -> Vec<u8> {
    let mut bitmap = [0u8; PAGE_BITMAP_BYTES];
    let mut words: Vec<u8> = Vec::new();
    for w in 0..PAGE_WORDS {
        let bytes = &page[w * 8..w * 8 + 8];
        if bytes != [0u8; 8] {
            bitmap[w / 8] |= 1 << (w % 8);
            words.extend_from_slice(bytes);
        }
    }
    let mut out = Vec::with_capacity(PAGE_BITMAP_BYTES + words.len());
    out.extend_from_slice(&bitmap);
    out.extend_from_slice(&words);
    out
}

fn decode_page(rec: &[u8]) -> Result<[u8; PAGE_BYTES], CodecError> {
    if rec.len() < PAGE_BITMAP_BYTES {
        return Err(err("page record shorter than its bitmap"));
    }
    let (bitmap, mut words) = rec.split_at(PAGE_BITMAP_BYTES);
    let mut page = [0u8; PAGE_BYTES];
    for w in 0..PAGE_WORDS {
        if bitmap[w / 8] & (1 << (w % 8)) != 0 {
            if words.len() < 8 {
                return Err(err("page record missing words"));
            }
            page[w * 8..w * 8 + 8].copy_from_slice(&words[..8]);
            words = &words[8..];
        }
    }
    if !words.is_empty() {
        return Err(err("trailing bytes in page record"));
    }
    Ok(page)
}

/// Streaming encoder for a checkpoint sequence with **page
/// deduplication**: `Memory` pages are `Arc`-shared between successive
/// checkpoints (copy-on-write), so each distinct page is emitted once
/// and later checkpoints reference it by id. Pages are matched first
/// by `Arc` identity and then by content, so a page rewritten with its
/// previous bytes also dedupes.
///
/// The encoder produces raw record payloads; framing, versioning and
/// checksumming are the store's job (`dca-store`).
#[derive(Default)]
pub struct CheckpointEncoder {
    /// `Arc` pointer → page id (fast path). Every key is kept alive by
    /// [`CheckpointEncoder::retained`], so an address can never be
    /// freed and reused by a different page mid-stream.
    by_ptr: HashMap<usize, u32>,
    /// Page content hash → candidate ids (content dedup).
    by_hash: HashMap<u64, Vec<u32>>,
    /// Every emitted page, by id, for content comparison.
    pages: Vec<Arc<[u8; PAGE_BYTES]>>,
    /// Clones of every `Arc` recorded in `by_ptr` (including content
    /// duplicates that never got their own id).
    retained: Vec<Arc<[u8; PAGE_BYTES]>>,
}

impl CheckpointEncoder {
    /// Creates an encoder with an empty page table.
    pub fn new() -> CheckpointEncoder {
        CheckpointEncoder::default()
    }

    /// Number of distinct pages emitted so far.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    fn page_id(&mut self, page: &Arc<[u8; PAGE_BYTES]>, new_pages: &mut Vec<(u32, Vec<u8>)>) -> u32 {
        let ptr = Arc::as_ptr(page) as *const u8 as usize;
        if let Some(&id) = self.by_ptr.get(&ptr) {
            return id;
        }
        // First sighting of this allocation: keep it alive for the
        // encoder's lifetime, or a dropped page could be reallocated
        // at the same address with different content and `by_ptr`
        // would hand out a stale id.
        self.retained.push(Arc::clone(page));
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in page.iter() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        let candidates = self.by_hash.entry(h).or_default();
        for &id in candidates.iter() {
            if self.pages[id as usize].as_ref() == page.as_ref() {
                self.by_ptr.insert(ptr, id);
                return id;
            }
        }
        let id = u32::try_from(self.pages.len()).expect("page table fits u32");
        candidates.push(id);
        self.by_ptr.insert(ptr, id);
        self.pages.push(Arc::clone(page));
        new_pages.push((id, encode_page(page)));
        id
    }

    /// Encodes `ckpt`. Returns the page records that have not appeared
    /// earlier in the stream (each `(id, payload)`; ids are dense and
    /// issued in first-use order) and the checkpoint record itself,
    /// which references pages by id.
    pub fn encode(&mut self, ckpt: &Checkpoint) -> (Vec<(u32, Vec<u8>)>, Vec<u8>) {
        let mut new_pages = Vec::new();
        let entries = ckpt.mem.page_entries();
        let refs: Vec<(u64, u32)> = entries
            .iter()
            .map(|(idx, page)| (*idx, self.page_id(page, &mut new_pages)))
            .collect();
        let mut out = Vec::with_capacity(8 + 1 + 4 + 64 * 8 + 4 + refs.len() * 12);
        out.extend_from_slice(&ckpt.seq.to_le_bytes());
        let flags = u8::from(ckpt.halted) | (u8::from(ckpt.cursor.is_some()) << 1);
        out.push(flags);
        out.extend_from_slice(&ckpt.cursor.unwrap_or(0).to_le_bytes());
        for r in ckpt.int_regs {
            out.extend_from_slice(&r.to_le_bytes());
        }
        for r in ckpt.fp_regs {
            out.extend_from_slice(&r.to_bits().to_le_bytes());
        }
        out.extend_from_slice(&(refs.len() as u32).to_le_bytes());
        for (idx, id) in refs {
            out.extend_from_slice(&idx.to_le_bytes());
            out.extend_from_slice(&id.to_le_bytes());
        }
        (new_pages, out)
    }
}

/// Decoder counterpart of [`CheckpointEncoder`]: feed it page records
/// in stream order, then decode checkpoint records against the
/// accumulated page table. Decoded checkpoints share one `Arc` per
/// page id, so the copy-on-write structure of the original stream is
/// restored.
#[derive(Default)]
pub struct CheckpointDecoder {
    pages: Vec<Arc<[u8; PAGE_BYTES]>>,
}

impl CheckpointDecoder {
    /// Creates a decoder with an empty page table.
    pub fn new() -> CheckpointDecoder {
        CheckpointDecoder::default()
    }

    /// Number of pages inserted so far.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Registers the page record with the given id.
    ///
    /// # Errors
    ///
    /// Rejects out-of-order ids (they must arrive densely, in emission
    /// order) and malformed payloads.
    pub fn insert_page(&mut self, id: u32, payload: &[u8]) -> Result<(), CodecError> {
        if id as usize != self.pages.len() {
            return Err(err("page id out of order"));
        }
        self.pages.push(Arc::new(decode_page(payload)?));
        Ok(())
    }

    /// Decodes one checkpoint record against the pages seen so far.
    ///
    /// # Errors
    ///
    /// Rejects truncated records, unknown page ids and trailing bytes.
    pub fn decode(&self, payload: &[u8]) -> Result<Checkpoint, CodecError> {
        let mut r = Reader::new(payload);
        let seq = r.u64()?;
        let flags = r.u8()?;
        if flags & !0b11 != 0 {
            return Err(err("unknown checkpoint flags"));
        }
        let halted = flags & 1 != 0;
        let cursor_raw = r.u32()?;
        let cursor = (flags & 2 != 0).then_some(cursor_raw);
        let mut int_regs = [0i64; 32];
        for reg in &mut int_regs {
            *reg = r.u64()? as i64;
        }
        let mut fp_regs = [0f64; 32];
        for reg in &mut fp_regs {
            *reg = f64::from_bits(r.u64()?);
        }
        let npages = r.u32()? as usize;
        let mut entries = Vec::with_capacity(npages);
        for _ in 0..npages {
            let idx = r.u64()?;
            let id = r.u32()? as usize;
            let page = self.pages.get(id).ok_or_else(|| err("unknown page id"))?;
            entries.push((idx, Arc::clone(page)));
        }
        r.finish()?;
        Ok(Checkpoint {
            int_regs,
            fp_regs,
            mem: Memory::from_page_entries(entries),
            cursor,
            seq,
            halted,
            // The architectural codec does not carry the uarch blob;
            // the store persists it as its own record kind and
            // reattaches it after decoding (`dca-store`).
            uarch: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_asm;

    fn countdown(n: i64) -> Program {
        parse_asm(&format!(
            "e:\n li r1, #{n}\n li r2, #8192\nl:\n st r1, 0(r2)\n ld r3, 0(r2)\n add r2, r2, #8\n add r1, r1, #-1\n bne r1, r0, l\n halt"
        ))
        .unwrap()
    }

    #[test]
    fn fast_forward_places_checkpoints_on_the_grid() {
        let p = countdown(100);
        let ff = fast_forward(&p, Memory::new(), 50, u64::MAX);
        assert!(ff.halted);
        assert_eq!(ff.total_insts, 2 + 100 * 5);
        assert_eq!(ff.checkpoints.len(), 1 + (ff.total_insts - 1) as usize / 50);
        for (k, c) in ff.checkpoints.iter().enumerate() {
            assert_eq!(c.seq(), k as u64 * 50);
        }
    }

    #[test]
    fn stream_yields_the_collected_pass_one_checkpoint_at_a_time() {
        let p = countdown(100);
        let ff = fast_forward(&p, Memory::new(), 50, 400);
        let mut hook = NoWarmHook;
        let mut stream = CheckpointStream::new(&p, Memory::new(), 50, 400, &mut hook);
        for (k, want) in ff.checkpoints.iter().enumerate() {
            let got = stream.next().expect("one checkpoint per grid point");
            // Each checkpoint arrives the moment the pass reaches it.
            assert_eq!(stream.insts(), k as u64 * 50);
            assert_eq!(got.seq(), want.seq());
            let tail: Vec<_> = Interp::resume(&p, &got).collect();
            let want_tail: Vec<_> = Interp::resume(&p, want).collect();
            assert_eq!(tail, want_tail);
        }
        assert!(stream.next().is_none());
        assert_eq!(stream.insts(), ff.total_insts);
        assert_eq!(stream.halted(), ff.halted);
    }

    #[test]
    fn resume_reproduces_the_tail_of_the_stream() {
        let p = countdown(40);
        let full: Vec<_> = Interp::new(&p, Memory::new()).collect();
        let ff = fast_forward(&p, Memory::new(), 64, u64::MAX);
        for c in &ff.checkpoints {
            let tail: Vec<_> = Interp::resume(&p, c).collect();
            assert_eq!(tail.as_slice(), &full[c.seq() as usize..]);
        }
    }

    #[test]
    fn resume_respects_absolute_fuel() {
        let p = countdown(40);
        let ff = fast_forward(&p, Memory::new(), 64, u64::MAX);
        let c = &ff.checkpoints[1];
        let n = Interp::resume(&p, c).with_fuel(c.seq() + 10).count();
        assert_eq!(n, 10);
    }

    #[test]
    fn fuel_caps_fast_forward() {
        let p = countdown(1000);
        let ff = fast_forward(&p, Memory::new(), 100, 350);
        assert_eq!(ff.total_insts, 350);
        assert!(!ff.halted);
        // Checkpoints at 0, 100, 200, 300 — none at the 350 cut.
        assert_eq!(ff.checkpoints.len(), 4);
    }

    #[test]
    fn codec_round_trips_a_stream_and_preserves_page_sharing() {
        // Prelude fills one page that the loop never touches again, so
        // every later checkpoint shares that page's Arc; the loop keeps
        // writing a second page, which diverges at every snapshot.
        let p = parse_asm(
            "e:
                li r1, #64
                li r2, #4096
            fill:
                st r1, 0(r2)
                add r2, r2, #8
                add r1, r1, #-1
                bne r1, r0, fill
                li r1, #200
                li r2, #16384
            l:
                st r1, 0(r2)
                ld r3, 0(r2)
                add r2, r2, #8
                add r1, r1, #-1
                bne r1, r0, l
                halt",
        )
        .unwrap();
        let ff = fast_forward(&p, Memory::new(), 100, u64::MAX);
        type PageRecords = Vec<(u32, Vec<u8>)>;
        let mut enc = CheckpointEncoder::new();
        let mut records: Vec<(PageRecords, Vec<u8>)> = Vec::new();
        for c in &ff.checkpoints {
            records.push(enc.encode(c));
        }
        // Dedup works: far fewer page records than checkpoints × pages.
        let total_refs: usize = ff.checkpoints.iter().map(|c| c.memory().page_count()).sum();
        assert!(enc.page_count() < total_refs, "{} < {total_refs}", enc.page_count());

        let mut dec = CheckpointDecoder::new();
        let full: Vec<_> = Interp::new(&p, Memory::new()).collect();
        for ((pages, ckpt_rec), orig) in records.iter().zip(&ff.checkpoints) {
            for (id, payload) in pages {
                dec.insert_page(*id, payload).unwrap();
            }
            let restored = dec.decode(ckpt_rec).unwrap();
            assert_eq!(restored.seq(), orig.seq());
            assert_eq!(restored.halted(), orig.halted());
            let tail: Vec<_> = Interp::resume(&p, &restored).collect();
            assert_eq!(tail.as_slice(), &full[orig.seq() as usize..]);
        }
        // Re-encoding the decoded stream is byte-identical (ids are
        // assigned in first-use order on both sides).
        let mut dec2 = CheckpointDecoder::new();
        let mut enc2 = CheckpointEncoder::new();
        for (pages, ckpt_rec) in &records {
            for (id, payload) in pages {
                dec2.insert_page(*id, payload).unwrap();
            }
            let restored = dec2.decode(ckpt_rec).unwrap();
            let (pages2, rec2) = enc2.encode(&restored);
            assert_eq!(&pages2, pages);
            assert_eq!(&rec2, ckpt_rec);
        }
    }

    #[test]
    fn codec_rejects_malformed_records() {
        let p = countdown(10);
        let ff = fast_forward(&p, Memory::new(), 8, u64::MAX);
        let mut enc = CheckpointEncoder::new();
        let (pages, rec) = enc.encode(&ff.checkpoints[1]);
        let mut dec = CheckpointDecoder::new();
        // Page ids must be dense and in order.
        assert!(dec.insert_page(3, &pages[0].1).is_err());
        for (id, payload) in &pages {
            dec.insert_page(*id, payload).unwrap();
        }
        // Truncation and trailing garbage are both rejected.
        assert!(dec.decode(&rec[..rec.len() - 1]).is_err());
        let mut long = rec.clone();
        long.push(0);
        assert!(dec.decode(&long).is_err());
        // Unknown page id: empty decoder.
        let empty = CheckpointDecoder::new();
        if !pages.is_empty() {
            assert!(empty.decode(&rec).is_err());
        }
    }

    #[test]
    fn page_codec_handles_sparse_and_dense_pages() {
        let mut sparse = [0u8; PAGE_BYTES];
        sparse[8] = 7;
        sparse[PAGE_BYTES - 1] = 9;
        let enc = encode_page(&sparse);
        assert!(enc.len() <= PAGE_BITMAP_BYTES + 16);
        assert_eq!(decode_page(&enc).unwrap(), sparse);
        let dense = [0xabu8; PAGE_BYTES];
        let enc = encode_page(&dense);
        assert_eq!(enc.len(), PAGE_BITMAP_BYTES + PAGE_BYTES);
        assert_eq!(decode_page(&enc).unwrap(), dense);
        assert!(decode_page(&enc[..10]).is_err());
    }

    #[test]
    fn checkpoints_share_untouched_pages() {
        let p = countdown(16);
        let mut it = Interp::new(&p, Memory::new());
        for _ in 0..20 {
            it.next();
        }
        let ckpt = it.checkpoint();
        let pages_at_snapshot = ckpt.memory().page_count();
        while it.next().is_some() {}
        // The snapshot still sees the memory as it was: the live image
        // diverged on its own copies of the written pages.
        assert_eq!(ckpt.memory().page_count(), pages_at_snapshot);
        let tail: Vec<_> = Interp::resume(&p, &ckpt).collect();
        assert!(!tail.is_empty());
    }
}
