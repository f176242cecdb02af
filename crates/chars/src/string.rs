//! Characteristic strings over `{h, H, A}` and `{⊥, h, H, A}`.

use std::fmt;
use std::ops::Index;
use std::str::FromStr;

use crate::interval::PrefixCounts;
use crate::symbol::{SemiSymbol, Symbol};

/// Error returned when parsing a characteristic string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseCharStringError {
    /// 0-based byte position of the offending character.
    pub position: usize,
    /// The offending character.
    pub character: char,
}

impl fmt::Display for ParseCharStringError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid characteristic symbol {:?} at position {}",
            self.character, self.position
        )
    }
}

impl std::error::Error for ParseCharStringError {}

/// A characteristic string `w ∈ {h, H, A}^n` (paper Definition 1).
///
/// Slots are 1-based: `w.get(t)` is the symbol of slot `sl_t` for
/// `t ∈ 1..=n`.
///
/// A *bivalent* characteristic string (paper Definition 8) is simply a
/// `CharString` containing no `h` symbols; see [`CharString::is_bivalent`].
///
/// # Examples
///
/// ```
/// use multihonest_chars::{CharString, Symbol};
///
/// let w: CharString = "hAH".parse()?;
/// assert_eq!(w.get(1), Symbol::UniqueHonest);
/// assert_eq!(w.get(2), Symbol::Adversarial);
/// assert_eq!(w.get(3), Symbol::MultiHonest);
/// assert_eq!(w.to_string(), "hAH");
/// # Ok::<(), multihonest_chars::ParseCharStringError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct CharString {
    symbols: Vec<Symbol>,
}

impl CharString {
    /// Reserves room for at least `additional` more symbols.
    pub fn reserve(&mut self, additional: usize) {
        self.symbols.reserve(additional);
    }

    /// Creates the empty string `ε`.
    pub fn new() -> CharString {
        CharString::default()
    }

    /// Creates a string from a vector of symbols (slot 1 first).
    pub fn from_symbols(symbols: Vec<Symbol>) -> CharString {
        CharString { symbols }
    }

    /// The number of slots `n`.
    pub fn len(&self) -> usize {
        self.symbols.len()
    }

    /// Returns `true` if this is the empty string `ε`.
    pub fn is_empty(&self) -> bool {
        self.symbols.is_empty()
    }

    /// The symbol of slot `slot` (1-based).
    ///
    /// # Panics
    ///
    /// Panics if `slot` is `0` or exceeds [`len`](Self::len).
    #[inline]
    pub fn get(&self, slot: usize) -> Symbol {
        assert!(
            slot >= 1 && slot <= self.symbols.len(),
            "slot {slot} out of range 1..={}",
            self.symbols.len()
        );
        self.symbols[slot - 1]
    }

    /// The symbol of slot `slot`, or `None` when out of range.
    #[inline]
    pub fn try_get(&self, slot: usize) -> Option<Symbol> {
        if slot >= 1 {
            self.symbols.get(slot - 1).copied()
        } else {
            None
        }
    }

    /// Appends a symbol, extending the string by one slot.
    pub fn push(&mut self, s: Symbol) {
        self.symbols.push(s);
    }

    /// The underlying symbols, slot 1 first.
    pub fn symbols(&self) -> &[Symbol] {
        &self.symbols
    }

    /// Iterates over `(slot, symbol)` pairs, slots 1-based and increasing.
    pub fn iter_slots(&self) -> impl Iterator<Item = (usize, Symbol)> + '_ {
        self.symbols
            .iter()
            .copied()
            .enumerate()
            .map(|(i, s)| (i + 1, s))
    }

    /// Returns the prefix covering slots `1..=len` (i.e. `w[1..=len]`).
    ///
    /// # Panics
    ///
    /// Panics if `len > self.len()`.
    pub fn prefix(&self, len: usize) -> CharString {
        assert!(
            len <= self.len(),
            "prefix length {len} exceeds {}",
            self.len()
        );
        CharString::from_symbols(self.symbols[..len].to_vec())
    }

    /// Returns the suffix covering slots `from..=n` (1-based, inclusive).
    ///
    /// `suffix(1)` is the whole string, `suffix(n + 1)` is `ε`.
    ///
    /// # Panics
    ///
    /// Panics if `from == 0` or `from > n + 1`.
    pub fn suffix(&self, from: usize) -> CharString {
        assert!(
            from >= 1 && from <= self.len() + 1,
            "suffix start {from} out of range"
        );
        CharString::from_symbols(self.symbols[from - 1..].to_vec())
    }

    /// Returns `true` if `self` is a (non-strict) prefix of `other`
    /// (the paper's `x ⪯ w`).
    pub fn is_prefix_of(&self, other: &CharString) -> bool {
        other.symbols.len() >= self.symbols.len()
            && other.symbols[..self.symbols.len()] == self.symbols[..]
    }

    /// Concatenates two strings.
    pub fn concat(&self, other: &CharString) -> CharString {
        let mut symbols = self.symbols.clone();
        symbols.extend_from_slice(&other.symbols);
        CharString::from_symbols(symbols)
    }

    /// Number of `h` slots in the whole string.
    pub fn count_unique_honest(&self) -> usize {
        self.symbols
            .iter()
            .filter(|s| **s == Symbol::UniqueHonest)
            .count()
    }

    /// Number of `H` slots in the whole string.
    pub fn count_multi_honest(&self) -> usize {
        self.symbols
            .iter()
            .filter(|s| **s == Symbol::MultiHonest)
            .count()
    }

    /// Number of honest (`h` or `H`) slots in the whole string.
    pub fn count_honest(&self) -> usize {
        self.symbols.iter().filter(|s| s.is_honest()).count()
    }

    /// Number of adversarial (`A`) slots in the whole string.
    pub fn count_adversarial(&self) -> usize {
        self.symbols.iter().filter(|s| s.is_adversarial()).count()
    }

    /// Returns `true` if the string is *bivalent* (paper Definition 8):
    /// it contains no `h` symbol, i.e. `w ∈ {H, A}^n`.
    pub fn is_bivalent(&self) -> bool {
        self.symbols.iter().all(|s| *s != Symbol::UniqueHonest)
    }

    /// Returns `true` if the whole string is `hH`-heavy: strictly more
    /// honest than adversarial symbols (paper Section 3.1).
    pub fn is_hh_heavy(&self) -> bool {
        self.count_honest() > self.count_adversarial()
    }

    /// Returns `true` if the whole string is `A`-heavy: at least as many
    /// adversarial as honest symbols (the complement of
    /// [`is_hh_heavy`](Self::is_hh_heavy)).
    pub fn is_a_heavy(&self) -> bool {
        !self.is_hh_heavy()
    }

    /// Precomputes cumulative symbol counts enabling O(1) interval queries.
    pub fn prefix_counts(&self) -> PrefixCounts {
        PrefixCounts::new(self)
    }

    /// Slots (1-based) of all honest symbols, in increasing order.
    pub fn honest_slots(&self) -> Vec<usize> {
        self.iter_slots()
            .filter(|(_, s)| s.is_honest())
            .map(|(t, _)| t)
            .collect()
    }

    /// Slots (1-based) of all `h` symbols, in increasing order.
    pub fn unique_honest_slots(&self) -> Vec<usize> {
        self.iter_slots()
            .filter(|(_, s)| *s == Symbol::UniqueHonest)
            .map(|(t, _)| t)
            .collect()
    }
}

impl Index<usize> for CharString {
    type Output = Symbol;

    /// Indexes by 1-based slot number, like [`CharString::get`].
    fn index(&self, slot: usize) -> &Symbol {
        assert!(
            slot >= 1 && slot <= self.symbols.len(),
            "slot {slot} out of range"
        );
        &self.symbols[slot - 1]
    }
}

impl FromStr for CharString {
    type Err = ParseCharStringError;

    fn from_str(s: &str) -> Result<CharString, ParseCharStringError> {
        let mut symbols = Vec::with_capacity(s.len());
        for (position, character) in s.chars().enumerate() {
            match Symbol::from_char(character) {
                Some(sym) => symbols.push(sym),
                None => {
                    return Err(ParseCharStringError {
                        position,
                        character,
                    })
                }
            }
        }
        Ok(CharString::from_symbols(symbols))
    }
}

impl fmt::Display for CharString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for s in &self.symbols {
            write!(f, "{s}")?;
        }
        Ok(())
    }
}

impl FromIterator<Symbol> for CharString {
    fn from_iter<I: IntoIterator<Item = Symbol>>(iter: I) -> CharString {
        CharString::from_symbols(iter.into_iter().collect())
    }
}

impl Extend<Symbol> for CharString {
    fn extend<I: IntoIterator<Item = Symbol>>(&mut self, iter: I) {
        self.symbols.extend(iter);
    }
}

/// A semi-synchronous characteristic string `w ∈ {⊥, h, H, A}^n`
/// (paper Definition 20).
///
/// # Examples
///
/// ```
/// use multihonest_chars::{SemiString, SemiSymbol};
///
/// let w: SemiString = "h..A.H".parse()?;
/// assert_eq!(w.len(), 6);
/// assert_eq!(w.get(2), SemiSymbol::Empty);
/// assert_eq!(w.count_nonempty(), 3);
/// # Ok::<(), multihonest_chars::ParseCharStringError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct SemiString {
    symbols: Vec<SemiSymbol>,
}

impl SemiString {
    /// Reserves room for at least `additional` more symbols.
    pub fn reserve(&mut self, additional: usize) {
        self.symbols.reserve(additional);
    }

    /// Creates the empty string.
    pub fn new() -> SemiString {
        SemiString::default()
    }

    /// Creates a string from a vector of symbols (slot 1 first).
    pub fn from_symbols(symbols: Vec<SemiSymbol>) -> SemiString {
        SemiString { symbols }
    }

    /// The number of slots `n`.
    pub fn len(&self) -> usize {
        self.symbols.len()
    }

    /// Returns `true` if this is the empty string.
    pub fn is_empty(&self) -> bool {
        self.symbols.is_empty()
    }

    /// The symbol of slot `slot` (1-based).
    ///
    /// # Panics
    ///
    /// Panics if `slot` is `0` or exceeds [`len`](Self::len).
    #[inline]
    pub fn get(&self, slot: usize) -> SemiSymbol {
        assert!(
            slot >= 1 && slot <= self.symbols.len(),
            "slot {slot} out of range 1..={}",
            self.symbols.len()
        );
        self.symbols[slot - 1]
    }

    /// Appends a symbol.
    pub fn push(&mut self, s: SemiSymbol) {
        self.symbols.push(s);
    }

    /// The underlying symbols, slot 1 first.
    pub fn symbols(&self) -> &[SemiSymbol] {
        &self.symbols
    }

    /// Iterates over `(slot, symbol)` pairs, slots 1-based and increasing.
    pub fn iter_slots(&self) -> impl Iterator<Item = (usize, SemiSymbol)> + '_ {
        self.symbols
            .iter()
            .copied()
            .enumerate()
            .map(|(i, s)| (i + 1, s))
    }

    /// Number of non-`⊥` slots.
    pub fn count_nonempty(&self) -> usize {
        self.symbols.iter().filter(|s| !s.is_empty_slot()).count()
    }

    /// Returns the prefix covering slots `1..=len`.
    ///
    /// # Panics
    ///
    /// Panics if `len > self.len()`.
    pub fn prefix(&self, len: usize) -> SemiString {
        assert!(
            len <= self.len(),
            "prefix length {len} exceeds {}",
            self.len()
        );
        SemiString::from_symbols(self.symbols[..len].to_vec())
    }

    /// Converts to a synchronous [`CharString`] by dropping `⊥` slots.
    ///
    /// This is **not** the reduction map `ρ_Δ` (which also re-labels honest
    /// slots followed closely by other honest slots); see
    /// [`Reduction`](crate::reduction::Reduction) for the faithful map. It
    /// equals `ρ_0`, the reduction with `Δ = 0`.
    pub fn drop_empty(&self) -> CharString {
        self.symbols.iter().filter_map(|s| s.to_symbol()).collect()
    }
}

impl FromStr for SemiString {
    type Err = ParseCharStringError;

    fn from_str(s: &str) -> Result<SemiString, ParseCharStringError> {
        let mut symbols = Vec::with_capacity(s.len());
        for (position, character) in s.chars().enumerate() {
            match SemiSymbol::from_char(character) {
                Some(sym) => symbols.push(sym),
                None => {
                    return Err(ParseCharStringError {
                        position,
                        character,
                    })
                }
            }
        }
        Ok(SemiString::from_symbols(symbols))
    }
}

impl fmt::Display for SemiString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for s in &self.symbols {
            write!(f, "{s}")?;
        }
        Ok(())
    }
}

impl FromIterator<SemiSymbol> for SemiString {
    fn from_iter<I: IntoIterator<Item = SemiSymbol>>(iter: I) -> SemiString {
        SemiString::from_symbols(iter.into_iter().collect())
    }
}

impl From<CharString> for SemiString {
    fn from(w: CharString) -> SemiString {
        w.symbols().iter().map(|s| SemiSymbol::from(*s)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_display_roundtrip() {
        let w: CharString = "hAhAhHAAH".parse().unwrap();
        assert_eq!(w.to_string(), "hAhAhHAAH");
        assert_eq!(w.len(), 9);
    }

    #[test]
    fn parse_rejects_bad_symbol() {
        let err = "hAx".parse::<CharString>().unwrap_err();
        assert_eq!(err.position, 2);
        assert_eq!(err.character, 'x');
        assert!(err.to_string().contains("position 2"));
    }

    #[test]
    fn one_based_indexing() {
        let w: CharString = "hAH".parse().unwrap();
        assert_eq!(w.get(1), Symbol::UniqueHonest);
        assert_eq!(w[2], Symbol::Adversarial);
        assert_eq!(w.get(3), Symbol::MultiHonest);
        assert_eq!(w.try_get(0), None);
        assert_eq!(w.try_get(4), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_slot_zero_panics() {
        let w: CharString = "h".parse().unwrap();
        let _ = w.get(0);
    }

    #[test]
    fn counts() {
        let w: CharString = "hAhAhHAAH".parse().unwrap();
        assert_eq!(w.count_unique_honest(), 3);
        assert_eq!(w.count_multi_honest(), 2);
        assert_eq!(w.count_honest(), 5);
        assert_eq!(w.count_adversarial(), 4);
        assert!(w.is_hh_heavy());
        assert!(!w.is_a_heavy());
    }

    #[test]
    fn prefix_suffix_concat() {
        let w: CharString = "hAhAh".parse().unwrap();
        assert_eq!(w.prefix(2).to_string(), "hA");
        assert_eq!(w.suffix(3).to_string(), "hAh");
        assert_eq!(w.suffix(6).to_string(), "");
        assert!(w.prefix(2).is_prefix_of(&w));
        assert!(!w.suffix(2).is_prefix_of(&w));
        assert_eq!(w.prefix(2).concat(&w.suffix(3)), w);
    }

    #[test]
    fn bivalent_detection() {
        assert!("HAHA".parse::<CharString>().unwrap().is_bivalent());
        assert!(!"HAh".parse::<CharString>().unwrap().is_bivalent());
        assert!(CharString::new().is_bivalent());
    }

    #[test]
    fn honest_slot_lists() {
        let w: CharString = "hAhAhHAAH".parse().unwrap();
        assert_eq!(w.honest_slots(), vec![1, 3, 5, 6, 9]);
        assert_eq!(w.unique_honest_slots(), vec![1, 3, 5]);
    }

    #[test]
    fn semi_string_roundtrip_and_drop() {
        let w: SemiString = "h..A.H".parse().unwrap();
        assert_eq!(w.to_string(), "h..A.H");
        assert_eq!(w.count_nonempty(), 3);
        assert_eq!(w.drop_empty().to_string(), "hAH");
        assert_eq!(w.prefix(3).to_string(), "h..");
    }

    #[test]
    fn semi_from_char_string() {
        let w: CharString = "hA".parse().unwrap();
        let s = SemiString::from(w);
        assert_eq!(s.to_string(), "hA");
    }

    #[test]
    fn from_iterator_and_extend() {
        let mut w: CharString = [Symbol::UniqueHonest, Symbol::Adversarial]
            .into_iter()
            .collect();
        w.extend([Symbol::MultiHonest]);
        assert_eq!(w.to_string(), "hAH");
    }

    #[test]
    fn empty_string_properties() {
        let e = CharString::new();
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
        assert!(e.is_a_heavy()); // 0 honest > 0 adversarial is false
        assert_eq!(e.to_string(), "");
    }
}
