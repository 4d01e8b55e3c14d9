//! Seeded program generator: random tensor contractions synthesized by
//! `sdlo_tce` (fused or unfused), sometimes permuted with
//! `sdlo_ir::apply_permute`, then tiled with `sdlo_ir::apply_tile`.

use crate::common::Rng;
use sdlo_ir::Node;
use sdlo_ir::{apply_permute, apply_tile, perfect_segment, Program, StmtId, Sym};
use sdlo_symbolic::{Bindings, Expr};

/// Contraction templates over output indices `a b c` and summation indices
/// `i j`; the generator permutes each tensor's index order, so one template
/// yields many distinct loop-nest shapes.
const TEMPLATES: [(&[&str], &[&[&str]]); 5] = [
    (&["a", "b"], &[&["a", "i"], &["i", "b"]]),
    (&["a", "b"], &[&["a", "i", "j"], &["i", "j", "b"]]),
    (&["a", "b"], &[&["a", "i"], &["b", "j"], &["i", "j"]]),
    (&["a", "b", "c"], &[&["a", "b", "i"], &["i", "c"]]),
    (
        &["a", "b", "c"],
        &[&["a", "i"], &["i", "b", "j"], &["j", "c"]],
    ),
];

/// A generated program and what was done to it.
pub struct Generated {
    pub program: Program,
    /// Tile symbol and the bound of the loop it tiles.
    pub tiles: Vec<(String, Expr)>,
}

fn contraction(rng: &mut Rng) -> String {
    let (out, inputs) = *rng.pick(&TEMPLATES);
    let mut render = |name: &str, idx: &[&str]| {
        let mut idx = idx.to_vec();
        rng.shuffle(&mut idx);
        format!("{name}[{}]", idx.join(","))
    };
    let lhs = render("R", out);
    let names = ["X", "Y", "Z"];
    let rhs: Vec<String> = inputs
        .iter()
        .zip(names)
        .map(|(idx, name)| render(name, idx))
        .collect();
    format!("{lhs} = {}", rhs.join(" * "))
}

/// Generate one program. `sizes` steers operation minimization and must
/// bind `V` and `N`. At most `max_tiles` loops are tiled (at least one).
pub fn program(rng: &mut Rng, sizes: &Bindings, max_tiles: usize) -> Option<Generated> {
    let src = contraction(rng);
    let extents = [("a", "V"), ("b", "V"), ("c", "V"), ("i", "N"), ("j", "N")];
    let used: Vec<(&str, &str)> = extents
        .iter()
        .copied()
        .filter(|(idx, _)| src.contains(&format!("{idx},")) || src.contains(&format!("{idx}]")))
        .collect();
    let fuse = rng.chance(1, 2);
    let mut program = sdlo_tce::synthesize(&src, &used, sizes, fuse).ok()?;

    // Tile one statement's perfect segment; pick among statements whose
    // segment has at least two loops.
    let candidates: Vec<(StmtId, Vec<Sym>)> = program
        .stmts()
        .iter()
        .filter_map(|s| {
            let seg = perfect_segment(&program, s.id)?;
            (seg.len() >= 2).then_some((s.id, seg))
        })
        .collect();
    if candidates.is_empty() {
        return None;
    }
    let (stmt, mut seg) = rng.pick(&candidates).clone();
    if rng.chance(1, 3) {
        rng.shuffle(&mut seg);
        program = apply_permute(&program, stmt, &seg).ok()?;
    }
    let mut chosen = seg.clone();
    rng.shuffle(&mut chosen);
    chosen.truncate(1 + rng.below(max_tiles.min(seg.len())));
    chosen.sort_by_key(|s| seg.iter().position(|x| x == s));
    let pairs: Vec<(Sym, Sym)> = chosen
        .iter()
        .map(|x| (x.clone(), Sym::new(format!("T{x}"))))
        .collect();
    let tiles = chosen
        .iter()
        .map(|x| Some((format!("T{x}"), loop_bound(&program.root, x)?)))
        .collect::<Option<Vec<_>>>()?;
    program = apply_tile(&program, stmt, &pairs).ok()?;
    Some(Generated { program, tiles })
}

/// The bound of the first loop over `index`.
fn loop_bound(nodes: &[Node], index: &Sym) -> Option<Expr> {
    nodes.iter().find_map(|n| match n {
        Node::Loop(l) if &l.index == index => Some(l.bound.clone()),
        Node::Loop(l) => loop_bound(&l.body, index),
        Node::Stmt(_) => None,
    })
}
