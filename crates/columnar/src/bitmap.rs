//! Bit-packed boolean masks, used both as validity (null) masks and as
//! filter masks.

use crate::HeapSize;

/// A growable bit-packed bitmap of fixed logical length.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// Create a bitmap of `len` bits, all set to `value`.
    pub fn new(len: usize, value: bool) -> Self {
        let nwords = len.div_ceil(64);
        let fill = if value { u64::MAX } else { 0 };
        let mut bm = Bitmap {
            words: vec![fill; nwords],
            len,
        };
        bm.mask_tail();
        bm
    }

    /// Create an empty bitmap.
    pub fn empty() -> Self {
        Bitmap {
            words: Vec::new(),
            len: 0,
        }
    }

    /// Build from a slice of booleans.
    pub fn from_bools(bools: &[bool]) -> Self {
        Self::from_iter(bools.iter().copied())
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the bitmap holds no bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Get bit `i`. Panics if out of bounds.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of bounds (len {})", self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Set bit `i` to `value`. Panics if out of bounds.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.len, "bit index {i} out of bounds (len {})", self.len);
        let word = &mut self.words[i / 64];
        let mask = 1u64 << (i % 64);
        if value {
            *word |= mask;
        } else {
            *word &= !mask;
        }
    }

    /// Append one bit.
    pub fn push(&mut self, value: bool) {
        if self.len.is_multiple_of(64) {
            self.words.push(0);
        }
        self.len += 1;
        if value {
            let i = self.len - 1;
            self.words[i / 64] |= 1u64 << (i % 64);
        }
    }

    /// Reserve room for `additional` more bits.
    pub fn reserve(&mut self, additional: usize) {
        let needed = (self.len + additional).div_ceil(64);
        self.words.reserve(needed.saturating_sub(self.words.len()));
    }

    /// Number of set bits.
    pub fn count_set(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True if every bit is set.
    pub fn all_set(&self) -> bool {
        self.count_set() == self.len
    }

    /// True if no bit is set.
    pub fn none_set(&self) -> bool {
        self.count_set() == 0
    }

    /// Bitwise AND of two equal-length bitmaps.
    pub fn and(&self, other: &Bitmap) -> Bitmap {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        let words = self
            .words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| a & b)
            .collect();
        Bitmap {
            words,
            len: self.len,
        }
    }

    /// In-place bitwise AND with an equal-length bitmap. The fused
    /// operator chains accumulate successive filter predicates into one
    /// selection bitmap this way, without allocating per predicate.
    pub fn and_assign(&mut self, other: &Bitmap) {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// Bitwise OR of two equal-length bitmaps.
    pub fn or(&self, other: &Bitmap) -> Bitmap {
        assert_eq!(self.len, other.len, "bitmap length mismatch");
        let words = self
            .words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| a | b)
            .collect();
        Bitmap {
            words,
            len: self.len,
        }
    }

    /// Bitwise NOT.
    pub fn not(&self) -> Bitmap {
        let words = self.words.iter().map(|w| !w).collect();
        let mut bm = Bitmap {
            words,
            len: self.len,
        };
        bm.mask_tail();
        bm
    }

    /// Iterate over the bits.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// Indices of set bits, ascending.
    pub fn set_indices(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.count_set());
        self.for_each_set(|i| out.push(i));
        out
    }

    /// Call `f` with each set-bit index, ascending, one word at a time —
    /// the compaction driver for filter kernels, which avoids
    /// materializing an index vector.
    #[inline]
    pub fn for_each_set(&self, mut f: impl FnMut(usize)) {
        for (wi, &word) in self.words.iter().enumerate() {
            let mut w = word;
            while w != 0 {
                let bit = w.trailing_zeros() as usize;
                f(wi * 64 + bit);
                w &= w - 1;
            }
        }
    }

    /// Call `f` with each maximal run of consecutive set bits as
    /// `(start, len)`, ascending. This is the run-aligned analogue of
    /// [`Bitmap::for_each_set`]: RLE-aware kernels use it to touch each
    /// surviving run once instead of every bit, and all-set / all-clear
    /// words are consumed in one step.
    #[inline]
    pub fn for_each_set_run(&self, mut f: impl FnMut(usize, usize)) {
        let mut run_start = 0usize;
        let mut run_len = 0usize;
        for (wi, &word) in self.words.iter().enumerate() {
            if word == 0 {
                if run_len > 0 {
                    f(run_start, run_len);
                    run_len = 0;
                }
                continue;
            }
            if word == u64::MAX {
                if run_len > 0 && run_start + run_len == wi * 64 {
                    run_len += 64;
                } else {
                    if run_len > 0 {
                        f(run_start, run_len);
                    }
                    run_start = wi * 64;
                    run_len = 64;
                }
                continue;
            }
            let mut w = word;
            while w != 0 {
                let bit = w.trailing_zeros() as usize;
                let ones = (w >> bit).trailing_ones() as usize;
                let abs = wi * 64 + bit;
                if run_len > 0 && run_start + run_len == abs {
                    run_len += ones;
                } else {
                    if run_len > 0 {
                        f(run_start, run_len);
                    }
                    run_start = abs;
                    run_len = ones;
                }
                if bit + ones >= 64 {
                    w = 0;
                } else {
                    w &= !0u64 << (bit + ones);
                }
            }
        }
        if run_len > 0 {
            f(run_start, run_len);
        }
    }

    /// Number of set bits in `[start, end)`. Word-parallel (one popcount
    /// per touched word); the RLE filter kernel uses this to size each
    /// surviving run without visiting individual bits.
    pub fn count_range(&self, start: usize, end: usize) -> usize {
        assert!(
            start <= end && end <= self.len,
            "count_range [{start}, {end}) out of bounds (len {})",
            self.len
        );
        if start == end {
            return 0;
        }
        let ws = start / 64;
        let we = (end - 1) / 64;
        let lo_mask = !0u64 << (start % 64);
        let hi_rem = end % 64;
        let hi_mask = if hi_rem == 0 {
            !0u64
        } else {
            (1u64 << hi_rem) - 1
        };
        if ws == we {
            (self.words[ws] & lo_mask & hi_mask).count_ones() as usize
        } else {
            let mut n = (self.words[ws] & lo_mask).count_ones() as usize;
            for w in &self.words[ws + 1..we] {
                n += w.count_ones() as usize;
            }
            n + (self.words[we] & hi_mask).count_ones() as usize
        }
    }

    /// Select the bits at `indices` into a new bitmap (gather). Output
    /// words are assembled in a register and flushed one word at a time —
    /// no per-bit `push` bookkeeping.
    pub fn take(&self, indices: &[usize]) -> Bitmap {
        self.take_idx(indices)
    }

    /// [`Bitmap::take`] generic over the index width (see
    /// [`crate::column::IndexLike`]).
    pub(crate) fn take_idx<I: crate::column::IndexLike>(&self, indices: &[I]) -> Bitmap {
        let mut out = BitWriter::with_capacity(indices.len());
        for &i in indices {
            out.append_bit(self.get(i.idx()));
        }
        out.finish()
    }

    /// Keep only the bits where `mask` is set (compaction by filter mask).
    /// Runs word-parallel: all-set and all-clear mask words are handled in
    /// one step, and partial words compact via a software bit-extract
    /// instead of one `push` per surviving bit.
    pub fn filter(&self, mask: &Bitmap) -> Bitmap {
        assert_eq!(self.len, mask.len, "bitmap length mismatch");
        let mut out = BitWriter::with_capacity(mask.count_set());
        for (wi, &m) in mask.words.iter().enumerate() {
            if m == 0 {
                continue;
            }
            let data = self.words[wi];
            // The tail word's mask bits past `len` are already zero
            // (mask_tail invariant), so a full mask word is always a full
            // 64-bit run of kept data.
            if m == u64::MAX {
                out.append_word(data, 64);
            } else {
                let (compacted, kept) = extract_bits(data, m);
                out.append_word(compacted, kept);
            }
        }
        out.finish()
    }

    /// Concatenate `other` onto the end of `self` (word-at-a-time: each
    /// appended word is spliced in with two shifts, not 64 pushes).
    pub fn extend_from(&mut self, other: &Bitmap) {
        let mut w = BitWriter::from_bitmap(std::mem::replace(self, Bitmap::empty()));
        w.append_bitmap(other);
        *self = w.finish();
    }

    /// Contiguous sub-range `[offset, offset + len)`. Word-at-a-time: each
    /// output word is stitched from (at most) two input words, so slicing
    /// costs O(len / 64) instead of one bit test per row.
    pub fn slice(&self, offset: usize, len: usize) -> Bitmap {
        assert!(offset + len <= self.len, "slice out of bounds");
        let nwords = len.div_ceil(64);
        let base = offset / 64;
        let shift = offset % 64;
        let mut words = Vec::with_capacity(nwords);
        for w in 0..nwords {
            let lo = self.words.get(base + w).copied().unwrap_or(0) >> shift;
            let hi = if shift == 0 {
                0
            } else {
                self.words.get(base + w + 1).copied().unwrap_or(0) << (64 - shift)
            };
            words.push(lo | hi);
        }
        let mut bm = Bitmap { words, len };
        bm.mask_tail();
        bm
    }

    /// The backing 64-bit words (bit `i` lives at `words[i / 64]`, low bit
    /// first). Exposed for serialization; tail bits past `len` are zero.
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }

    /// Rebuild a bitmap from raw words and a logical length, re-masking any
    /// tail bits. Panics if `words` is not exactly `len.div_ceil(64)` words
    /// long (callers deserializing untrusted input must validate first).
    pub fn from_words(words: Vec<u64>, len: usize) -> Bitmap {
        assert_eq!(
            words.len(),
            len.div_ceil(64),
            "word count does not match bitmap length"
        );
        let mut bm = Bitmap { words, len };
        bm.mask_tail();
        bm
    }

    /// Zero any bits beyond the logical length in the final word so that
    /// popcount-based operations stay correct.
    fn mask_tail(&mut self) {
        let rem = self.len % 64;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }
}

/// Software bit-extract (`pext`): compact the bits of `value` selected by
/// `mask` into the low bits of the result; returns `(compacted, count)`.
#[inline]
fn extract_bits(value: u64, mut mask: u64) -> (u64, usize) {
    let mut out = 0u64;
    let mut k = 0usize;
    while mask != 0 {
        let bit = mask.trailing_zeros() as u64;
        out |= ((value >> bit) & 1) << k;
        k += 1;
        mask &= mask - 1;
    }
    (out, k)
}

/// Word-buffered bitmap writer: bits accumulate in a register word and
/// flush 64 at a time, so bulk builders skip `push`'s per-bit branch and
/// bounds checks.
pub struct BitWriter {
    /// Completed 64-bit words.
    words: Vec<u64>,
    /// The partial word being assembled.
    acc: u64,
    /// Bits currently in `acc` (always < 64 between calls).
    nbits: usize,
}

impl BitWriter {
    /// Writer with room for `bits` bits.
    pub fn with_capacity(bits: usize) -> BitWriter {
        BitWriter {
            words: Vec::with_capacity(bits.div_ceil(64)),
            acc: 0,
            nbits: 0,
        }
    }

    /// Resume writing at the end of an existing bitmap (its last partial
    /// word, if any, becomes the accumulator).
    fn from_bitmap(bm: Bitmap) -> BitWriter {
        let nbits = bm.len % 64;
        let mut words = bm.words;
        let acc = if nbits > 0 {
            words.pop().unwrap_or(0)
        } else {
            0
        };
        BitWriter { words, acc, nbits }
    }

    /// Append one bit.
    #[inline]
    pub fn append_bit(&mut self, value: bool) {
        self.acc |= (value as u64) << self.nbits;
        self.nbits += 1;
        if self.nbits == 64 {
            self.words.push(self.acc);
            self.acc = 0;
            self.nbits = 0;
        }
    }

    /// Append the low `n` bits of `word`.
    #[inline]
    pub fn append_word(&mut self, word: u64, n: usize) {
        debug_assert!(n <= 64);
        if n == 0 {
            return;
        }
        let word = if n == 64 { word } else { word & ((1u64 << n) - 1) };
        self.acc |= word << self.nbits;
        if self.nbits + n >= 64 {
            self.words.push(self.acc);
            let consumed = 64 - self.nbits;
            self.acc = if consumed == 64 { 0 } else { word >> consumed };
            self.nbits = self.nbits + n - 64;
        } else {
            self.nbits += n;
        }
    }

    /// Append every bit of `bm`, one word at a time.
    pub fn append_bitmap(&mut self, bm: &Bitmap) {
        let mut remaining = bm.len;
        for &word in &bm.words {
            let n = remaining.min(64);
            self.append_word(word, n);
            remaining -= n;
        }
    }

    /// Append `len` copies of `value` (a run), 64 bits at a time.
    #[inline]
    pub fn append_run(&mut self, value: bool, mut len: usize) {
        let word = if value { u64::MAX } else { 0 };
        while len > 64 {
            self.append_word(word, 64);
            len -= 64;
        }
        if len > 0 {
            self.append_word(word, len);
        }
    }

    /// Finish into a [`Bitmap`].
    pub fn finish(mut self) -> Bitmap {
        let len = self.words.len() * 64 + self.nbits;
        if self.nbits > 0 {
            self.words.push(self.acc);
        }
        Bitmap {
            words: self.words,
            len,
        }
    }
}

impl HeapSize for Bitmap {
    fn heap_size(&self) -> usize {
        self.words.capacity() * 8
    }
}

impl FromIterator<bool> for Bitmap {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let mut bm = Bitmap::empty();
        for b in iter {
            bm.push(b);
        }
        bm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_all_true_and_false() {
        let t = Bitmap::new(70, true);
        assert_eq!(t.len(), 70);
        assert_eq!(t.count_set(), 70);
        assert!(t.all_set());
        let f = Bitmap::new(70, false);
        assert!(f.none_set());
    }

    #[test]
    fn push_get_set() {
        let mut bm = Bitmap::empty();
        for i in 0..200 {
            bm.push(i % 3 == 0);
        }
        assert_eq!(bm.len(), 200);
        for i in 0..200 {
            assert_eq!(bm.get(i), i % 3 == 0, "bit {i}");
        }
        bm.set(1, true);
        assert!(bm.get(1));
        bm.set(0, false);
        assert!(!bm.get(0));
    }

    #[test]
    fn boolean_algebra() {
        let a = Bitmap::from_bools(&[true, true, false, false]);
        let b = Bitmap::from_bools(&[true, false, true, false]);
        assert_eq!(
            a.and(&b),
            Bitmap::from_bools(&[true, false, false, false])
        );
        assert_eq!(a.or(&b), Bitmap::from_bools(&[true, true, true, false]));
        assert_eq!(a.not(), Bitmap::from_bools(&[false, false, true, true]));
    }

    #[test]
    fn not_masks_tail_bits() {
        // A 3-bit bitmap's NOT must not leak set bits past the length.
        let a = Bitmap::from_bools(&[false, false, false]);
        let n = a.not();
        assert_eq!(n.count_set(), 3);
        assert!(n.all_set());
    }

    #[test]
    fn set_indices_and_take() {
        let bm = Bitmap::from_bools(&[true, false, true, false, true]);
        assert_eq!(bm.set_indices(), vec![0, 2, 4]);
        let taken = bm.take(&[4, 1, 0]);
        assert_eq!(taken, Bitmap::from_bools(&[true, false, true]));
    }

    #[test]
    fn filter_compacts() {
        let data = Bitmap::from_bools(&[true, true, false, false]);
        let mask = Bitmap::from_bools(&[true, false, true, false]);
        assert_eq!(data.filter(&mask), Bitmap::from_bools(&[true, false]));
    }

    #[test]
    fn slice_and_extend() {
        let mut a = Bitmap::from_bools(&[true, false, true]);
        let b = Bitmap::from_bools(&[false, true]);
        a.extend_from(&b);
        assert_eq!(a.len(), 5);
        assert_eq!(a.slice(2, 3), Bitmap::from_bools(&[true, false, true]));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        Bitmap::new(4, true).get(4);
    }

    #[test]
    fn words_round_trip() {
        for len in [0usize, 1, 63, 64, 65, 130] {
            let bm = Bitmap::from_iter((0..len).map(|i| i % 3 == 0));
            let back = Bitmap::from_words(bm.as_words().to_vec(), len);
            assert_eq!(back, bm, "len {len}");
        }
        // Dirty tail bits are re-masked on the way in.
        let back = Bitmap::from_words(vec![u64::MAX], 3);
        assert_eq!(back.count_set(), 3);
    }

    #[test]
    fn crossing_word_boundaries() {
        let bools: Vec<bool> = (0..130).map(|i| i % 2 == 0).collect();
        let bm = Bitmap::from_bools(&bools);
        assert_eq!(bm.count_set(), 65);
        assert_eq!(bm.set_indices().len(), 65);
        assert_eq!(bm.slice(63, 4), Bitmap::from_bools(&[false, true, false, true]));
    }

    /// The lengths where bit-packing bugs live: empty, one short of a word,
    /// exactly one word, one past a word.
    #[test]
    fn word_boundary_lengths() {
        for len in [0usize, 63, 64, 65] {
            let t = Bitmap::new(len, true);
            assert_eq!(t.len(), len, "len {len}");
            assert_eq!(t.count_set(), len, "count_set at len {len}");
            assert!(t.all_set(), "all_set at len {len}");
            assert_eq!(t.not().count_set(), 0, "NOT leaks tail bits at {len}");

            let f = Bitmap::new(len, false);
            assert!(f.none_set(), "none_set at len {len}");
            assert_eq!(f.not().count_set(), len, "NOT of empty at len {len}");
            assert!(f.not().all_set() || len == 0, "NOT all_set at len {len}");

            assert_eq!(t.and(&f).count_set(), 0, "AND at len {len}");
            assert_eq!(t.or(&f).count_set(), len, "OR at len {len}");
        }
    }

    #[test]
    fn empty_bitmap_invariants() {
        let e = Bitmap::empty();
        assert_eq!(e.len(), 0);
        assert!(e.is_empty());
        // Degenerate all/none conventions on the empty mask.
        assert!(e.all_set());
        assert!(e.none_set());
        assert_eq!(e.set_indices(), Vec::<usize>::new());
        assert_eq!(e.iter().count(), 0);
        assert_eq!(e.slice(0, 0), Bitmap::empty());
    }

    #[test]
    fn push_across_word_boundary() {
        let mut bm = Bitmap::empty();
        for i in 0..65 {
            bm.push(i >= 63);
            assert_eq!(bm.len(), i + 1);
        }
        assert!(!bm.get(62));
        assert!(bm.get(63));
        assert!(bm.get(64));
        assert_eq!(bm.count_set(), 2);
    }

    #[test]
    fn set_at_word_boundaries() {
        let mut bm = Bitmap::new(65, false);
        for i in [0usize, 63, 64] {
            bm.set(i, true);
            assert!(bm.get(i), "set bit {i}");
        }
        assert_eq!(bm.count_set(), 3);
        bm.set(63, false);
        assert_eq!(bm.count_set(), 2);
    }

    /// The word-parallel filter/take/extend_from must agree with the naive
    /// per-bit definitions at and around word boundaries.
    #[test]
    fn word_parallel_paths_match_naive() {
        for len in [0usize, 1, 63, 64, 65, 127, 128, 130, 200] {
            let data = Bitmap::from_iter((0..len).map(|i| i % 3 == 0));
            let mask = Bitmap::from_iter((0..len).map(|i| i % 2 == 0 || i % 7 == 0));
            // filter == per-bit compaction
            let expect: Bitmap = (0..len)
                .filter(|&i| mask.get(i))
                .map(|i| data.get(i))
                .collect();
            assert_eq!(data.filter(&mask), expect, "filter len {len}");
            // all-set and all-clear masks
            assert_eq!(data.filter(&Bitmap::new(len, true)), data, "full mask {len}");
            assert_eq!(
                data.filter(&Bitmap::new(len, false)),
                Bitmap::empty(),
                "empty mask {len}"
            );
            // take == per-index gather
            let idx: Vec<usize> = (0..len).rev().collect();
            let taken = data.take(&idx);
            let expect: Bitmap = idx.iter().map(|&i| data.get(i)).collect();
            assert_eq!(taken, expect, "take len {len}");
            // extend_from at every alignment
            for prefix in [0usize, 1, 63, 64, 65] {
                let mut a = Bitmap::from_iter((0..prefix).map(|i| i % 5 == 0));
                let expect: Bitmap = a.iter().chain(data.iter()).collect();
                a.extend_from(&data);
                assert_eq!(a, expect, "extend prefix {prefix} len {len}");
                assert_eq!(a.count_set(), expect.count_set());
            }
        }
    }

    #[test]
    fn bitwriter_append_word_alignments() {
        // Append runs of every length at every starting alignment.
        for start in 0usize..66 {
            for n in [0usize, 1, 7, 63, 64] {
                let mut w = BitWriter::with_capacity(start + n);
                for i in 0..start {
                    w.append_bit(i % 2 == 0);
                }
                w.append_word(u64::MAX, n);
                let bm = w.finish();
                assert_eq!(bm.len(), start + n, "start {start} n {n}");
                for i in 0..start {
                    assert_eq!(bm.get(i), i % 2 == 0, "prefix bit {i}");
                }
                for i in start..start + n {
                    assert!(bm.get(i), "appended bit {i} (start {start} n {n})");
                }
            }
        }
    }

    /// The run iterator must agree with a naive per-bit run scan at every
    /// word alignment, including runs that span word boundaries and
    /// all-set / all-clear whole words.
    #[test]
    fn set_run_iterator_matches_naive() {
        let patterns: Vec<Vec<bool>> = vec![
            vec![],
            vec![true],
            vec![false],
            (0..63).map(|_| true).collect(),
            (0..64).map(|_| true).collect(),
            (0..65).map(|_| true).collect(),
            (0..130).map(|i| i % 2 == 0).collect(),
            (0..200).map(|i| (i / 7) % 2 == 0).collect(),
            (0..192).map(|i| !(60..=130).contains(&i)).collect(),
            (0..300).map(|i| i % 97 < 50).collect(),
        ];
        for bools in patterns {
            let bm = Bitmap::from_bools(&bools);
            let mut got = Vec::new();
            bm.for_each_set_run(|s, l| got.push((s, l)));
            // Naive: scan for maximal runs.
            let mut expect = Vec::new();
            let mut i = 0;
            while i < bools.len() {
                if bools[i] {
                    let s = i;
                    while i < bools.len() && bools[i] {
                        i += 1;
                    }
                    expect.push((s, i - s));
                } else {
                    i += 1;
                }
            }
            assert_eq!(got, expect, "len {}", bools.len());
        }
    }

    #[test]
    fn count_range_matches_naive() {
        let bools: Vec<bool> = (0..300).map(|i| i % 3 == 0 || i % 11 == 0).collect();
        let bm = Bitmap::from_bools(&bools);
        for &(s, e) in &[
            (0usize, 0usize),
            (0, 1),
            (0, 300),
            (63, 64),
            (63, 65),
            (64, 128),
            (1, 299),
            (130, 130),
            (200, 257),
        ] {
            let expect = (s..e).filter(|&i| bools[i]).count();
            assert_eq!(bm.count_range(s, e), expect, "[{s}, {e})");
        }
    }

    #[test]
    fn bitwriter_append_run_alignments() {
        for start in [0usize, 1, 63, 64, 65] {
            for len in [0usize, 1, 64, 65, 130] {
                let mut w = BitWriter::with_capacity(start + len);
                for i in 0..start {
                    w.append_bit(i % 2 == 0);
                }
                w.append_run(true, len);
                w.append_run(false, 3);
                let bm = w.finish();
                assert_eq!(bm.len(), start + len + 3);
                assert_eq!(
                    bm.count_range(start, start + len),
                    len,
                    "start {start} len {len}"
                );
                assert_eq!(bm.count_range(start + len, start + len + 3), 0);
            }
        }
    }

    #[test]
    fn slice_at_word_boundaries() {
        let bools: Vec<bool> = (0..65).map(|i| i == 63 || i == 64).collect();
        let bm = Bitmap::from_bools(&bools);
        assert_eq!(bm.slice(0, 0).len(), 0);
        assert_eq!(bm.slice(64, 1), Bitmap::from_bools(&[true]));
        assert_eq!(bm.slice(0, 63).count_set(), 0);
        assert_eq!(bm.slice(63, 2), Bitmap::from_bools(&[true, true]));
    }
}
