//! Word-granular tainted memory: every word carries a value and a shadow
//! taint label, mirroring DataFlowSanitizer's shadow-memory scheme with a
//! 1:1 word mapping.
//!
//! Memory is a single flat arena with stack discipline: each interpreter
//! frame records a watermark on entry and truncates back to it on return,
//! so `alloca` is a bump allocation. Address 0 is reserved as a null page
//! (loads/stores there trap), mirroring the usual guard page.

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
    /// overflows the address space or cannot be reserved.
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

/// The flat tainted memory arena. Each word stores its value and shadow
/// label together (one [`TVal`]), so a load touches one cache line, not
/// two parallel arrays.
#[derive(Debug)]
pub struct Memory {
    words: Vec<TVal>,
}

impl Default for Memory {
    fn default() -> Self {
        Self::new()
    }
}

impl Memory {
    pub fn new() -> Memory {
        Memory {
            // Word 0 is the null guard.
            words: vec![TVal::UNTAINTED_ZERO],
        }
    }

    /// Current watermark (frame save point).
    #[inline]
    pub fn mark(&self) -> usize {
        self.words.len()
    }

    /// Release everything allocated after `mark`.
    pub fn release_to(&mut self, mark: usize) {
        debug_assert!(mark >= 1 && mark <= self.words.len());
        self.words.truncate(mark);
    }

    /// Allocate `words` zero-initialized, untainted words; returns the
    /// address of the first. A size the address space or the allocator
    /// cannot hold is a [`MemError::AllocFailed`], not a panic or abort.
    pub fn alloc(&mut self, words: usize) -> Result<usize, MemError> {
        let addr = self.words.len();
        let failed = || MemError::AllocFailed { words, len: addr };
        let end = addr.checked_add(words).ok_or_else(failed)?;
        self.words.try_reserve(words).map_err(|_| failed())?;
        self.words.resize(end, TVal::UNTAINTED_ZERO);
        Ok(addr)
    }

    #[inline]
    fn check(&self, addr: usize) -> Result<(), MemError> {
        if addr == 0 {
            return Err(MemError::NullAccess);
        }
        if addr >= self.words.len() {
            return Err(MemError::OutOfBounds {
                addr,
                len: self.words.len(),
            });
        }
        Ok(())
    }

    /// Load the value and its shadow label at `addr`.
    #[inline]
    pub fn load(&self, addr: usize) -> Result<TVal, MemError> {
        self.check(addr)?;
        Ok(self.words[addr])
    }

    /// Store a value and its label at `addr`.
    #[inline]
    pub fn store(&mut self, addr: usize, v: TVal) -> Result<(), MemError> {
        self.check(addr)?;
        self.words[addr] = v;
        Ok(())
    }

    /// Overwrite only the shadow label at `addr` (the `write_label` taint
    /// source of the paper, §3.2).
    pub fn set_label(&mut self, addr: usize, label: Label) -> Result<(), MemError> {
        self.check(addr)?;
        self.words[addr].label = label;
        Ok(())
    }

    /// Join `label` into the shadow at `addr` via the provided union.
    pub fn read_label(&self, addr: usize) -> Result<Label, MemError> {
        self.check(addr)?;
        Ok(self.words[addr].label)
    }

    /// Total words allocated (including the null guard).
    pub fn len(&self) -> usize {
        self.words.len()
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
        let mut m = Memory::new();
        let a = m.alloc(4).unwrap();
        assert!(a >= 1);
        m.store(a + 2, TVal::from_i64(42)).unwrap();
        assert_eq!(m.load(a + 2).unwrap().as_i64(), 42);
        assert_eq!(m.load(a).unwrap().as_i64(), 0);
    }

    #[test]
    fn shadow_follows_stores() {
        let mut m = Memory::new();
        let a = m.alloc(1).unwrap();
        m.store(a, TVal::from_i64(1).with_label(Label(5))).unwrap();
        assert_eq!(m.load(a).unwrap().label, Label(5));
        m.store(a, TVal::from_i64(2)).unwrap();
        assert_eq!(m.load(a).unwrap().label, Label::EMPTY, "store clears taint");
    }

    #[test]
    fn set_label_is_a_taint_source() {
        let mut m = Memory::new();
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
        let mut m = Memory::new();
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
        let mut m = Memory::new();
        let len = m.len();
        for words in [usize::MAX, 1 << 60] {
            assert_eq!(
                m.alloc(words).unwrap_err(),
                MemError::AllocFailed { words, len }
            );
        }
        assert_eq!(m.len(), len, "a failed alloc leaves the arena as it was");
    }

    #[test]
    fn stack_discipline() {
        let mut m = Memory::new();
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
