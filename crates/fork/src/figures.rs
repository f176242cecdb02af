//! Programmatic reconstructions of the paper's figures.
//!
//! These builders regenerate, vertex for vertex, the illustrative forks of
//! the paper (experiments E2–E4 of the index in README.md, "Experiments").
//! Their structure is asserted in tests, and [`crate::dot::to_dot`]
//! renders them for visual comparison with the published diagrams.

use multihonest_chars::CharString;

use crate::fork::{Fork, VertexId};

/// The fork of **Figure 1** (page 6): `w = hAhAhHAAH`, with three disjoint
/// maximum-length tines, two concurrent honest vertices at slot 6 and two
/// at slot 9.
pub fn figure1() -> Fork {
    let w: CharString = "hAhAhHAAH".parse().expect("valid literal");
    let mut f = Fork::new(w);
    let r = VertexId::ROOT;
    // Common prefix 0 → 1 → 2 → 3 plus a stray adversarial 2'.
    let v1 = f.push_vertex(r, 1);
    let v2a = f.push_vertex(v1, 2);
    let _v2b = f.push_vertex(v1, 2);
    let v3 = f.push_vertex(v2a, 3);
    // Slot 4 (adversarial) fans out three ways under 3.
    let _v4a = f.push_vertex(v3, 4);
    let v4b = f.push_vertex(v3, 4);
    let v4c = f.push_vertex(v3, 4);
    // The unique honest 5 also sits at depth 4 under 3.
    let v5 = f.push_vertex(v3, 5);
    // The two concurrent honest leaders of slot 6 extend *different*
    // vertices of the same depth (5 and 4'), as the figure highlights.
    let v6a = f.push_vertex(v5, 6);
    let v6b = f.push_vertex(v4b, 6);
    // Three maximum-length tines of length 6: …→6→7, …→6'→9, …→4''→8→9'.
    let _v7 = f.push_vertex(v6a, 7);
    let _v9a = f.push_vertex(v6b, 9);
    let v8 = f.push_vertex(v4c, 8);
    let _v9b = f.push_vertex(v8, 9);
    f
}

/// The balanced fork of **Figure 2** (page 23): `w = hAhAhA` with two
/// completely disjoint maximum-length tines.
pub fn figure2() -> Fork {
    let w: CharString = "hAhAhA".parse().expect("valid literal");
    let mut f = Fork::new(w);
    let r = VertexId::ROOT;
    // Upper tine: 0 → 1 → 4 → 5.
    let v1 = f.push_vertex(r, 1);
    let v4 = f.push_vertex(v1, 4);
    let _v5 = f.push_vertex(v4, 5);
    // Lower tine: 0 → 2 → 3 → 6.
    let v2 = f.push_vertex(r, 2);
    let v3 = f.push_vertex(v2, 3);
    let _v6 = f.push_vertex(v3, 6);
    f
}

/// The `x`-balanced fork of **Figure 3** (page 23): `w = hhhAhA` with
/// `x = hh`; the two maximum-length tines share the prefix over `x` and are
/// disjoint over the rest.
pub fn figure3() -> Fork {
    let w: CharString = "hhhAhA".parse().expect("valid literal");
    let mut f = Fork::new(w);
    let r = VertexId::ROOT;
    // Shared prefix over x = hh: 0 → 1 → 2.
    let v1 = f.push_vertex(r, 1);
    let v2 = f.push_vertex(v1, 2);
    // Upper branch: → 3 → 6.
    let v3 = f.push_vertex(v2, 3);
    let _v6 = f.push_vertex(v3, 6);
    // Lower branch: → 4 → 5.
    let v4 = f.push_vertex(v2, 4);
    let _v5 = f.push_vertex(v4, 5);
    f
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balanced;

    #[test]
    fn figure1_is_valid_with_three_max_tines() {
        let f = figure1();
        assert!(f.validate().is_ok());
        assert_eq!(f.height(), 6);
        assert_eq!(f.max_length_tines().len(), 3);
        assert_eq!(f.vertices_with_label(6).len(), 2);
        assert_eq!(f.vertices_with_label(9).len(), 2);
        // The two slot-6 vertices extend different parents of equal depth.
        let sixes = f.vertices_with_label(6);
        let p0 = f.parent(sixes[0]).unwrap();
        let p1 = f.parent(sixes[1]).unwrap();
        assert_ne!(p0, p1);
        assert_eq!(f.depth(p0), f.depth(p1));
    }

    #[test]
    fn figure2_is_balanced() {
        let f = figure2();
        assert!(f.validate().is_ok());
        assert!(balanced::is_balanced(&f));
        assert_eq!(f.height(), 3);
    }

    #[test]
    fn figure3_is_x_balanced_for_x_hh() {
        let f = figure3();
        assert!(f.validate().is_ok());
        assert!(balanced::is_x_balanced(&f, 2));
        // But NOT balanced outright: the two max tines share the edges
        // over x.
        assert!(!balanced::is_balanced(&f));
        assert!(!balanced::is_x_balanced(&f, 1));
    }
}
