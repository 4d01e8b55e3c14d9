//! Structural canonicalization of programs.
//!
//! Two programs that differ only in *diagnostic* choices — loop index names,
//! array names, the order arrays were declared in, statement labels, the
//! program name — describe the same loop nest and produce the same
//! stack-distance analysis. [`canonicalize`] maps every member of such an
//! equivalence class to one representative:
//!
//! * loop indices are renamed `i0, i1, …` in preorder (renaming is *scoped*,
//!   so sibling loops that reuse an index name are handled correctly),
//! * arrays are reordered by first reference in preorder and renamed
//!   `A0, A1, …` (arrays never referenced are appended afterwards, ordered by
//!   their extent structure),
//! * statement ids are renumbered in program order and labels are regenerated
//!   from the reference structure,
//! * the program name is dropped (replaced by `"canonical"`).
//!
//! **Free symbols are deliberately kept verbatim.** They are the program's
//! parameters — callers bind them *by name* (`N = 512`, `Ti = 64`) — so a
//! program over `N` and a structurally identical one over `M` are different
//! shapes as far as a memoizing cache is concerned. This keeps the canonical
//! form exact (equal canonical forms ⟺ interchangeable analyses) without
//! needing graph canonization over symmetric parameter uses.
//!
//! [`Canonical::hash`] is a *stable* 64-bit FNV-1a structural hash of the
//! canonical form: it does not depend on platform, process, or `Hash` impl
//! details, so it can key an external cache or travel over the wire.

use crate::node::{ArrayRef, DimExpr, LoopNode, Node, Stmt, StmtKind};
use crate::program::{ArrayDecl, ArrayId, Program, StmtId};
use sdlo_symbolic::{Atom, Expr, Sym};
use std::collections::BTreeMap;

/// Result of [`canonicalize`]: the representative program, the array
/// correspondence, and a stable structural hash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Canonical {
    /// The canonical representative. Always passes
    /// [`Program::validate`](crate::Program::validate) when the input does.
    pub program: Program,
    /// `array_map[k]` is the **original** [`ArrayId`] of canonical array
    /// `Ak`, so per-array analysis results on the canonical program can be
    /// reported under the caller's array names.
    pub array_map: Vec<ArrayId>,
    /// Stable FNV-1a structural hash of `program` (name and labels excluded).
    pub hash: u64,
}

/// Canonicalize `p`. See the [module docs](self) for what is normalized.
pub fn canonicalize(p: &Program) -> Canonical {
    let mut cx = Cx {
        scope: Vec::new(),
        next_loop: 0,
        next_stmt: 0,
        array_order: Vec::new(),
        array_remap: BTreeMap::new(),
    };
    let root: Vec<Node> = p.root.iter().map(|n| cx.node(n)).collect();

    // Referenced arrays in first-reference order, then unreferenced ones
    // ordered by extent structure (stable under declaration reordering).
    let mut arrays: Vec<ArrayDecl> = Vec::with_capacity(p.arrays.len());
    let mut array_map = cx.array_order.clone();
    for (k, orig) in cx.array_order.iter().enumerate() {
        arrays.push(ArrayDecl {
            id: ArrayId(k),
            name: Sym::new(format!("A{k}")),
            dims: p.array(*orig).dims.clone(),
        });
    }
    let mut unreferenced: Vec<&ArrayDecl> = p
        .arrays
        .iter()
        .filter(|a| !cx.array_remap.contains_key(&a.id))
        .collect();
    unreferenced.sort_by_key(|a| {
        (
            a.dims.iter().map(|d| d.to_string()).collect::<Vec<_>>(),
            a.name.clone(),
        )
    });
    for a in unreferenced {
        let k = arrays.len();
        arrays.push(ArrayDecl {
            id: ArrayId(k),
            name: Sym::new(format!("A{k}")),
            dims: a.dims.clone(),
        });
        array_map.push(a.id);
    }

    let program = Program {
        name: "canonical".into(),
        arrays,
        root,
    };
    let hash = structural_hash(&program);
    Canonical {
        program,
        array_map,
        hash,
    }
}

/// Stable structural hash of a program, as produced by [`canonicalize`].
/// Convenience for `canonicalize(p).hash`.
pub fn canonical_hash(p: &Program) -> u64 {
    canonicalize(p).hash
}

struct Cx {
    /// Innermost-last stack of `(original index, canonical index)`.
    scope: Vec<(Sym, Sym)>,
    next_loop: usize,
    next_stmt: usize,
    /// Original ids of referenced arrays, in first-reference order.
    array_order: Vec<ArrayId>,
    array_remap: BTreeMap<ArrayId, usize>,
}

impl Cx {
    fn node(&mut self, n: &Node) -> Node {
        match n {
            Node::Loop(l) => {
                let canon = Sym::new(format!("i{}", self.next_loop));
                self.next_loop += 1;
                // Rename the bound *before* pushing: the loop's own index is
                // not in scope inside its bound expression.
                let bound = self.expr(&l.bound);
                self.scope.push((l.index.clone(), canon.clone()));
                let body = l.body.iter().map(|n| self.node(n)).collect();
                self.scope.pop();
                Node::Loop(LoopNode {
                    index: canon,
                    bound,
                    body,
                })
            }
            Node::Stmt(s) => {
                let id = StmtId(self.next_stmt);
                self.next_stmt += 1;
                let refs: Vec<ArrayRef> = s.refs.iter().map(|r| self.array_ref(r)).collect();
                let label = render_label(s.kind, &refs);
                Node::Stmt(Stmt {
                    id,
                    label,
                    refs,
                    kind: s.kind,
                })
            }
        }
    }

    fn array_ref(&mut self, r: &ArrayRef) -> ArrayRef {
        let k = *self.array_remap.entry(r.array).or_insert_with(|| {
            self.array_order.push(r.array);
            self.array_order.len() - 1
        });
        ArrayRef {
            array: ArrayId(k),
            dims: r
                .dims
                .iter()
                .map(|d| DimExpr {
                    parts: d
                        .parts
                        .iter()
                        .map(|(idx, stride)| (self.rename_index(idx), self.expr(stride)))
                        .collect(),
                })
                .collect(),
            is_write: r.is_write,
        }
    }

    /// Canonical name of a loop index — innermost binding wins. Unbound
    /// indices (only possible in programs that fail `validate`) pass through.
    fn rename_index(&self, s: &Sym) -> Sym {
        self.scope
            .iter()
            .rev()
            .find(|(orig, _)| orig == s)
            .map(|(_, canon)| canon.clone())
            .unwrap_or_else(|| s.clone())
    }

    /// Rename loop-index occurrences inside an expression (bounds and
    /// strides may mention enclosing loop indices); free symbols unchanged.
    fn expr(&self, e: &Expr) -> Expr {
        // Rebuild multiplicatively through the smart constructors so the
        // result is normalized even when renaming reorders factors.
        let mut acc = Expr::zero();
        for t in e.terms() {
            let mut prod = Expr::from(t.coeff);
            for (a, exp) in &t.factors {
                let sub = match a {
                    Atom::Var(s) => Expr::var(self.rename_index(s)),
                    Atom::CeilDiv(n, d) => self.expr(n).ceil_div(&self.expr(d)),
                    Atom::FloorDiv(n, d) => self.expr(n).floor_div(&self.expr(d)),
                    Atom::Min(es) => es
                        .iter()
                        .map(|x| self.expr(x))
                        .reduce(|a, b| a.min(&b))
                        .expect("min atom has operands"),
                    Atom::Max(es) => es
                        .iter()
                        .map(|x| self.expr(x))
                        .reduce(|a, b| a.max(&b))
                        .expect("max atom has operands"),
                };
                prod *= sub.pow(*exp);
            }
            acc += prod;
        }
        acc
    }
}

fn render_label(kind: StmtKind, refs: &[ArrayRef]) -> String {
    let fmt_ref = |r: &ArrayRef| {
        let dims: Vec<String> = r
            .dims
            .iter()
            .map(|d| {
                d.parts
                    .iter()
                    .map(|(idx, stride)| {
                        if stride.as_const() == Some(1) {
                            idx.name().to_string()
                        } else {
                            format!("{idx}*({stride})")
                        }
                    })
                    .collect::<Vec<_>>()
                    .join("+")
            })
            .collect();
        format!("A{}[{}]", r.array.0, dims.join(","))
    };
    match kind {
        StmtKind::ZeroLhs => format!("{} = 0", fmt_ref(&refs[0])),
        StmtKind::Assign => format!("{} = {}", fmt_ref(&refs[0]), fmt_ref(&refs[1])),
        StmtKind::MulAddAssign => format!(
            "{} += {} * {}",
            fmt_ref(&refs[0]),
            fmt_ref(&refs[1]),
            fmt_ref(&refs[2])
        ),
    }
}

// ---------------------------------------------------------------------------
// Stable hashing
// ---------------------------------------------------------------------------

/// Streaming 64-bit FNV-1a, the one stable hash of the workspace: shape
/// hashes, router ring placement and disk-cache checksums all use it. Explicit rather than `DefaultHasher` so the
/// value is stable across Rust versions, platforms and processes.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    #[inline]
    fn default() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv64 {
    #[inline]
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Length-prefixed, so `("ab","c")` and `("a","bc")` differ.
    #[inline]
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    #[inline]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// One-shot FNV-1a 64 of `bytes`.
#[inline]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.bytes(bytes);
    h.finish()
}

/// Hash a (canonical) program's structure: arrays with extents, the loop
/// tree, and reference structure. Program name and statement labels are
/// excluded — they are diagnostic.
fn structural_hash(p: &Program) -> u64 {
    let mut h = Fnv64::new();
    h.u64(p.arrays.len() as u64);
    for a in &p.arrays {
        h.str(a.name.name());
        h.u64(a.dims.len() as u64);
        for d in &a.dims {
            h.str(&d.to_string());
        }
    }
    fn node(n: &Node, h: &mut Fnv64) {
        match n {
            Node::Loop(l) => {
                h.bytes(b"L");
                h.str(l.index.name());
                h.str(&l.bound.to_string());
                h.u64(l.body.len() as u64);
                for c in &l.body {
                    node(c, h);
                }
            }
            Node::Stmt(s) => {
                h.bytes(b"S");
                h.u64(match s.kind {
                    StmtKind::ZeroLhs => 0,
                    StmtKind::MulAddAssign => 1,
                    StmtKind::Assign => 2,
                });
                h.u64(s.refs.len() as u64);
                for r in &s.refs {
                    h.u64(r.array.0 as u64);
                    h.u64(u64::from(r.is_write));
                    h.u64(r.dims.len() as u64);
                    for d in &r.dims {
                        h.u64(d.parts.len() as u64);
                        for (idx, stride) in &d.parts {
                            h.str(idx.name());
                            h.str(&stride.to_string());
                        }
                    }
                }
            }
        }
    }
    h.u64(p.root.len() as u64);
    for n in &p.root {
        node(n, &mut h);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::programs;

    #[test]
    fn canonical_program_validates() {
        for p in [
            programs::matmul(),
            programs::tiled_matmul(),
            programs::two_index_unfused(),
            programs::two_index_fused(),
            programs::tiled_two_index(),
        ] {
            let c = canonicalize(&p);
            assert_eq!(c.program.validate(), Ok(()), "{}", p.name);
            assert_eq!(c.program.stmt_count(), p.stmt_count());
            assert_eq!(c.array_map.len(), p.arrays.len());
        }
    }

    #[test]
    fn idempotent() {
        let p = programs::tiled_two_index();
        let c1 = canonicalize(&p);
        let c2 = canonicalize(&c1.program);
        assert_eq!(c1.program, c2.program);
        assert_eq!(c1.hash, c2.hash);
    }

    #[test]
    fn renaming_loop_indices_is_invisible() {
        let mut p = programs::matmul();
        let c0 = canonicalize(&p);
        // Rename i/j/k -> a/b/c throughout (scoped walk unnecessary: names
        // are unique here).
        fn rename(n: &mut Node) {
            match n {
                Node::Loop(l) => {
                    let new = match l.index.name() {
                        "i" => "a",
                        "j" => "b",
                        "k" => "c",
                        other => other,
                    };
                    l.index = Sym::new(new);
                    for c in &mut l.body {
                        rename(c);
                    }
                }
                Node::Stmt(s) => {
                    for r in &mut s.refs {
                        for d in &mut r.dims {
                            for (idx, _) in &mut d.parts {
                                let new = match idx.name() {
                                    "i" => "a",
                                    "j" => "b",
                                    "k" => "c",
                                    other => other,
                                };
                                *idx = Sym::new(new);
                            }
                        }
                    }
                }
            }
        }
        for n in &mut p.root {
            rename(n);
        }
        let c1 = canonicalize(&p);
        assert_eq!(c0.program, c1.program);
        assert_eq!(c0.hash, c1.hash);
    }

    #[test]
    fn reordering_declarations_is_invisible() {
        let p = programs::matmul();
        let c0 = canonicalize(&p);
        // Reverse the declaration order and remap every reference.
        let n = p.arrays.len();
        let mut q = p.clone();
        q.arrays.reverse();
        for (k, a) in q.arrays.iter_mut().enumerate() {
            a.id = ArrayId(k);
        }
        fn remap(node: &mut Node, n: usize) {
            match node {
                Node::Loop(l) => {
                    for c in &mut l.body {
                        remap(c, n);
                    }
                }
                Node::Stmt(s) => {
                    for r in &mut s.refs {
                        r.array = ArrayId(n - 1 - r.array.0);
                    }
                }
            }
        }
        for node in &mut q.root {
            remap(node, n);
        }
        assert_eq!(q.validate(), Ok(()));
        let c1 = canonicalize(&q);
        assert_eq!(c0.program, c1.program);
        assert_eq!(c0.hash, c1.hash);
        // But the array correspondence differs.
        assert_ne!(c0.array_map, c1.array_map);
    }

    #[test]
    fn free_symbols_are_identity() {
        // Renaming a *free* symbol is a different shape on purpose.
        let p = programs::matmul();
        let mut q = p.clone();
        fn swap_bound(n: &mut Node) {
            if let Node::Loop(l) = n {
                if l.bound == Expr::var("Ni") {
                    l.bound = Expr::var("Mi");
                }
                for c in &mut l.body {
                    swap_bound(c);
                }
            }
        }
        for n in &mut q.root {
            swap_bound(n);
        }
        assert_ne!(p, q, "swap must have changed the program");
        assert_ne!(canonicalize(&p).hash, canonicalize(&q).hash);
    }

    #[test]
    fn structural_changes_change_the_hash() {
        let base = canonical_hash(&programs::matmul());
        assert_ne!(base, canonical_hash(&programs::tiled_matmul()));
        assert_ne!(base, canonical_hash(&programs::two_index_fused()));
    }

    #[test]
    fn hash_is_deterministic_and_nonzero() {
        // The hash keys external caches, so it must not depend on process
        // state (no `DefaultHasher`, no address-based identity).
        let h = canonical_hash(&programs::tiled_matmul());
        assert_eq!(h, canonical_hash(&programs::tiled_matmul()));
        assert_ne!(h, 0);
    }
}
