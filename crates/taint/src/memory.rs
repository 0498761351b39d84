//! Word-granular tainted memory: a *value plane* of bare 64-bit words and,
//! in taint runs only, a parallel *shadow plane* of labels, one per word —
//! DataFlowSanitizer's shadow-memory scheme with a 1:1 word mapping. As in
//! the paper, where labels exist only in the taint build, a measurement
//! run (`InterpConfig::taint == None`) carries no shadow: its loads read
//! [`Label::EMPTY`] and its label writes touch nothing.
//!
//! Both planes are split into fixed pages of [`PAGE`] words, so growing
//! the arena adds pages and never copies what is already there. Memory
//! has stack discipline: each interpreter frame records a watermark on
//! entry and releases back to it on return, so `alloca` is a bump
//! allocation. Released pages stay allocated and are handed out again;
//! `alloc` zeroes every word (and label) it returns. Address 0 is
//! reserved as a null page (loads/stores there trap), mirroring the usual
//! guard page.

use crate::label::Label;

/// A runtime value with its taint label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TVal {
    /// Raw 64-bit representation: i64 as-is, f64 via `to_bits`, bool as 0/1,
    /// pointers as word addresses.
    pub bits: u64,
    pub label: Label,
}

impl TVal {
    pub const UNTAINTED_ZERO: TVal = TVal {
        bits: 0,
        label: Label::EMPTY,
    };

    #[inline]
    pub fn from_i64(v: i64) -> TVal {
        TVal {
            bits: v as u64,
            label: Label::EMPTY,
        }
    }

    #[inline]
    pub fn from_f64(v: f64) -> TVal {
        TVal {
            bits: v.to_bits(),
            label: Label::EMPTY,
        }
    }

    #[inline]
    pub fn from_bool(v: bool) -> TVal {
        TVal {
            bits: v as u64,
            label: Label::EMPTY,
        }
    }

    #[inline]
    pub fn with_label(mut self, label: Label) -> TVal {
        self.label = label;
        self
    }

    #[inline]
    pub fn as_i64(self) -> i64 {
        self.bits as i64
    }

    #[inline]
    pub fn as_f64(self) -> f64 {
        f64::from_bits(self.bits)
    }

    #[inline]
    pub fn as_bool(self) -> bool {
        self.bits != 0
    }

    #[inline]
    pub fn as_addr(self) -> usize {
        self.bits as usize
    }
}

/// Errors raised by memory operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemError {
    /// Access below the null guard or beyond the allocated arena.
    OutOfBounds { addr: usize, len: usize },
    /// Access to address 0.
    NullAccess,
    /// An allocation of `words` words on top of an arena of `len` words
    /// would pass [`MAX_WORDS`] or cannot be reserved.
    AllocFailed { words: usize, len: usize },
}

impl std::fmt::Display for MemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemError::OutOfBounds { addr, len } => {
                write!(
                    f,
                    "memory access at word {addr} outside arena of {len} words"
                )
            }
            MemError::NullAccess => write!(f, "null memory access"),
            MemError::AllocFailed { words, len } => {
                write!(
                    f,
                    "cannot allocate {words} words on top of an arena of {len} words"
                )
            }
        }
    }
}

impl std::error::Error for MemError {}

/// Words per page of either plane.
pub const PAGE: usize = 4096;

/// The most words the arena holds (2 GiB of values, 512 MiB of labels):
/// an `alloc` past it is a [`MemError::AllocFailed`]. Every word handed
/// out is written (zeroed), so this bounds what one run can touch.
pub const MAX_WORDS: usize = 1 << 28;

/// One page of a plane.
type Page<T> = Box<[T; PAGE]>;

/// A zeroed page, or `None` if the allocator refuses it.
fn new_page<T: Copy + Default>() -> Option<Page<T>> {
    let mut words = Vec::new();
    words.try_reserve_exact(PAGE).ok()?;
    words.resize(PAGE, T::default());
    words.into_boxed_slice().try_into().ok()
}

/// The paged tainted memory arena.
#[derive(Debug)]
pub struct Memory {
    /// Words handed out, the null guard included.
    len: usize,
    values: Vec<Page<u64>>,
    /// The shadow plane, page for page beside `values`; `None` when the
    /// run propagates no taint.
    labels: Option<Vec<Page<Label>>>,
}

impl Memory {
    /// An empty arena (just the null guard). `shadow` allocates the label
    /// plane: a taint run needs it, a measurement run does not.
    pub fn new(shadow: bool) -> Memory {
        Memory {
            len: 1,
            values: Vec::new(),
            labels: shadow.then(Vec::new),
        }
    }

    /// Current watermark (frame save point).
    #[inline]
    pub fn mark(&self) -> usize {
        self.len
    }

    /// Release everything allocated after `mark`. The pages stay, for
    /// the next `alloc` to reuse.
    pub fn release_to(&mut self, mark: usize) {
        debug_assert!(mark >= 1 && mark <= self.len);
        self.len = mark;
    }

    /// Allocate `words` zero-initialized, untainted words; returns the
    /// address of the first. A size past [`MAX_WORDS`] or one the
    /// allocator cannot hold is a [`MemError::AllocFailed`], not a panic
    /// or abort, and leaves the arena as it was.
    pub fn alloc(&mut self, words: usize) -> Result<usize, MemError> {
        let addr = self.len;
        let failed = || MemError::AllocFailed { words, len: addr };
        let end = addr
            .checked_add(words)
            .filter(|&end| end <= MAX_WORDS)
            .ok_or_else(failed)?;
        // Reused words may hold what a released frame left there; fresh
        // pages are born zeroed.
        self.zero(addr, end.min(self.values.len() * PAGE));
        let pages = self.values.len();
        if self.grow(end.div_ceil(PAGE)).is_none() {
            self.values.truncate(pages);
            if let Some(labels) = &mut self.labels {
                labels.truncate(pages);
            }
            return Err(failed());
        }
        self.len = end;
        Ok(addr)
    }

    /// Zero words `from..to` of both planes, all in pages already held.
    fn zero(&mut self, mut from: usize, to: usize) {
        while from < to {
            let (page, word) = (from / PAGE, from % PAGE);
            let run = word..word + (PAGE - word).min(to - from);
            from += run.len();
            if let Some(labels) = &mut self.labels {
                labels[page][run.clone()].fill(Label::EMPTY);
            }
            self.values[page][run].fill(0);
        }
    }

    /// Add zeroed pages to both planes until each holds `pages`.
    fn grow(&mut self, pages: usize) -> Option<()> {
        let more = pages.saturating_sub(self.values.len());
        self.values.try_reserve(more).ok()?;
        if let Some(labels) = &mut self.labels {
            labels.try_reserve(more).ok()?;
        }
        for _ in 0..more {
            self.values.push(new_page()?);
            if let Some(labels) = &mut self.labels {
                labels.push(new_page()?);
            }
        }
        Some(())
    }

    #[inline]
    fn check(&self, addr: usize) -> Result<(), MemError> {
        if addr == 0 {
            return Err(MemError::NullAccess);
        }
        if addr >= self.len {
            return Err(MemError::OutOfBounds {
                addr,
                len: self.len,
            });
        }
        Ok(())
    }

    /// Load the value and its shadow label at `addr` ([`Label::EMPTY`]
    /// without a shadow plane).
    #[inline]
    pub fn load(&self, addr: usize) -> Result<TVal, MemError> {
        self.check(addr)?;
        let (page, word) = (addr / PAGE, addr % PAGE);
        Ok(TVal {
            bits: self.values[page][word],
            label: match &self.labels {
                Some(labels) => labels[page][word],
                None => Label::EMPTY,
            },
        })
    }

    /// Store a value and its label at `addr` (the label only if there is
    /// a shadow plane).
    #[inline]
    pub fn store(&mut self, addr: usize, v: TVal) -> Result<(), MemError> {
        self.check(addr)?;
        let (page, word) = (addr / PAGE, addr % PAGE);
        self.values[page][word] = v.bits;
        if let Some(labels) = &mut self.labels {
            labels[page][word] = v.label;
        }
        Ok(())
    }

    /// Overwrite only the shadow label at `addr` (the `write_label` taint
    /// source of the paper, §3.2). Without a shadow plane there is
    /// nothing to write, but the address is still checked.
    pub fn set_label(&mut self, addr: usize, label: Label) -> Result<(), MemError> {
        self.check(addr)?;
        if let Some(labels) = &mut self.labels {
            labels[addr / PAGE][addr % PAGE] = label;
        }
        Ok(())
    }

    /// The shadow label at `addr` ([`Label::EMPTY`] without a shadow
    /// plane).
    pub fn read_label(&self, addr: usize) -> Result<Label, MemError> {
        self.check(addr)?;
        Ok(match &self.labels {
            Some(labels) => labels[addr / PAGE][addr % PAGE],
            None => Label::EMPTY,
        })
    }

    /// Total words allocated (including the null guard).
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        false // the null guard always exists
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tval_round_trips() {
        assert_eq!(TVal::from_i64(-7).as_i64(), -7);
        assert_eq!(TVal::from_f64(2.5).as_f64(), 2.5);
        assert!(TVal::from_bool(true).as_bool());
        assert!(!TVal::from_bool(false).as_bool());
        let t = TVal::from_i64(1).with_label(Label(3));
        assert_eq!(t.label, Label(3));
    }

    #[test]
    fn alloc_load_store() {
        let mut m = Memory::new(true);
        let a = m.alloc(4).unwrap();
        assert!(a >= 1);
        m.store(a + 2, TVal::from_i64(42)).unwrap();
        assert_eq!(m.load(a + 2).unwrap().as_i64(), 42);
        assert_eq!(m.load(a).unwrap().as_i64(), 0);
    }

    #[test]
    fn shadow_follows_stores() {
        let mut m = Memory::new(true);
        let a = m.alloc(1).unwrap();
        m.store(a, TVal::from_i64(1).with_label(Label(5))).unwrap();
        assert_eq!(m.load(a).unwrap().label, Label(5));
        m.store(a, TVal::from_i64(2)).unwrap();
        assert_eq!(m.load(a).unwrap().label, Label::EMPTY, "store clears taint");
    }

    #[test]
    fn set_label_is_a_taint_source() {
        let mut m = Memory::new(true);
        let a = m.alloc(1).unwrap();
        m.store(a, TVal::from_i64(9)).unwrap();
        m.set_label(a, Label(7)).unwrap();
        let v = m.load(a).unwrap();
        assert_eq!(v.as_i64(), 9, "value untouched");
        assert_eq!(v.label, Label(7));
        assert_eq!(m.read_label(a).unwrap(), Label(7));
    }

    #[test]
    fn null_and_oob_trap() {
        let mut m = Memory::new(true);
        assert_eq!(m.load(0).unwrap_err(), MemError::NullAccess);
        assert!(matches!(
            m.load(100),
            Err(MemError::OutOfBounds { addr: 100, .. })
        ));
        assert_eq!(
            m.store(0, TVal::from_i64(0)).unwrap_err(),
            MemError::NullAccess
        );
    }

    #[test]
    fn oversized_alloc_is_an_error() {
        for shadow in [true, false] {
            let mut m = Memory::new(shadow);
            m.alloc(3).unwrap();
            let len = m.len();
            for words in [usize::MAX, 1 << 60, MAX_WORDS] {
                assert_eq!(
                    m.alloc(words).unwrap_err(),
                    MemError::AllocFailed { words, len }
                );
            }
            assert_eq!(m.len(), len, "a failed alloc leaves the arena as it was");
            assert_eq!(m.values.len(), 1, "and adds no page");
        }
    }

    #[test]
    fn alloc_spans_a_page_boundary() {
        for shadow in [true, false] {
            let mut m = Memory::new(shadow);
            m.alloc(PAGE - 10).unwrap();
            let a = m.alloc(20).unwrap();
            assert_eq!(a, PAGE - 9);
            assert_eq!(m.len(), PAGE + 11);
            for i in 0..20 {
                assert_eq!(m.load(a + i).unwrap(), TVal::UNTAINTED_ZERO);
                m.store(a + i, TVal::from_i64(i as i64).with_label(Label(1)))
                    .unwrap();
            }
            for i in 0..20 {
                let v = m.load(a + i).unwrap();
                assert_eq!(v.as_i64(), i as i64, "word {} of the run", i);
                assert_eq!(v.label, if shadow { Label(1) } else { Label::EMPTY });
            }
        }
    }

    #[test]
    fn realloc_after_release_is_zeroed_labels_included() {
        let mut m = Memory::new(true);
        let mark = m.mark();
        let a = m.alloc(PAGE + 100).unwrap();
        for i in 0..PAGE + 100 {
            m.store(a + i, TVal::from_i64(-1).with_label(Label(3)))
                .unwrap();
        }
        m.set_label(a + PAGE, Label(4)).unwrap();
        m.release_to(mark);
        let b = m.alloc(PAGE + 200).unwrap();
        assert_eq!(b, a, "the released pages are handed out again");
        assert_eq!(m.values.len(), 2, "no page was added for the reused words");
        for i in 0..PAGE + 200 {
            assert_eq!(m.load(b + i).unwrap(), TVal::UNTAINTED_ZERO, "word {i}");
            assert_eq!(m.read_label(b + i).unwrap(), Label::EMPTY);
        }
    }

    #[test]
    fn first_word_past_len_traps_inside_a_live_page() {
        let mut m = Memory::new(true);
        let a = m.alloc(10).unwrap();
        let len = m.len();
        assert_eq!(len, a + 10);
        let oob = MemError::OutOfBounds { addr: len, len };
        assert_eq!(m.load(len).unwrap_err(), oob);
        assert_eq!(m.store(len, TVal::from_i64(1)).unwrap_err(), oob);
        assert_eq!(m.set_label(len, Label(2)).unwrap_err(), oob);
        assert_eq!(m.read_label(len).unwrap_err(), oob);
        assert!(m.load(len - 1).is_ok());
    }

    #[test]
    fn a_shadow_free_plane_ignores_labels() {
        let mut m = Memory::new(false);
        assert!(m.labels.is_none());
        let a = m.alloc(2).unwrap();
        m.store(a, TVal::from_i64(9).with_label(Label(5))).unwrap();
        m.set_label(a + 1, Label(7)).unwrap();
        assert_eq!(
            m.load(a).unwrap(),
            TVal::from_i64(9),
            "value kept, label not"
        );
        assert_eq!(m.read_label(a + 1).unwrap(), Label::EMPTY);
        assert!(m.labels.is_none(), "no shadow plane appears");
        // The address is still checked.
        assert_eq!(m.set_label(0, Label(7)).unwrap_err(), MemError::NullAccess);
        assert!(matches!(
            m.read_label(a + 2),
            Err(MemError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn stack_discipline() {
        let mut m = Memory::new(true);
        let outer = m.alloc(2).unwrap();
        let mark = m.mark();
        let inner = m.alloc(8).unwrap();
        m.store(inner, TVal::from_i64(1)).unwrap();
        m.release_to(mark);
        assert_eq!(m.len(), mark);
        assert!(m.load(inner).is_err(), "freed frame memory traps");
        assert!(m.load(outer).is_ok());
    }
}
