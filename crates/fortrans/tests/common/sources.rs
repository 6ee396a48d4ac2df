//! Source sets and the free-form → fixed-form printer the front-end
//! suites share. Pulled in with `#[path = "common/sources.rs"]`, so a
//! suite that needs only this does not compile the service corpus.

#![allow(dead_code)] // each test binary uses its own slice of this module

use fortrans::CompileError;
use fun3d::variants::{Fun3dConfig, Fun3dVariant};
use sarb::variants::SarbVariant;

/// The 13 GLAF source sets the benchmark's `cold_compile` compiles: five
/// generated SARB Table-2 variants, eight FUN3D configurations.
pub fn glaf_source_sets() -> Vec<Vec<String>> {
    let sarb = [
        SarbVariant::GlafSerial,
        SarbVariant::GlafParallel(0),
        SarbVariant::GlafParallel(1),
        SarbVariant::GlafParallel(2),
        SarbVariant::GlafParallel(3),
    ];
    let base = Fun3dConfig::default();
    let fun3d = [
        base,
        Fun3dConfig { fuse: true, ..base },
        Fun3dConfig { no_realloc: true, ..base },
        Fun3dConfig { no_realloc: true, fuse: true, ..base },
        Fun3dConfig { par_edgejp: true, ..base },
        Fun3dConfig::best(),
        Fun3dConfig { par_cell_loop: true, ..base },
        Fun3dConfig {
            par_edgejp: true,
            par_cell_loop: true,
            par_edge_loop: true,
            par_ioff_search: true,
            ..base
        },
    ];
    sarb.into_iter()
        .map(sarb::variants::variant_sources)
        .chain(fun3d.into_iter().map(|c| fun3d::variants::variant_sources(Fun3dVariant::Glaf(c))))
        .collect()
}

/// Renders a free-form source as fixed-form cards (72-column discipline,
/// `&`-free continuations via column 6). The round-trip property:
/// `lex_fixed(to_fixed_form(src))` must reproduce the free-form token
/// stream exactly.
pub fn to_fixed_form(free_src: &str) -> Result<String, CompileError> {
    to_fixed_form_wrapped(free_src, 66)
}

/// As [`to_fixed_form`] but wrapping statement text every `width`
/// characters (1..=66), exercising continuation splits at arbitrary —
/// including mid-token — columns. Splits never land inside a character
/// literal (trailing card blanks are not preserved there).
pub fn to_fixed_form_wrapped(free_src: &str, width: usize) -> Result<String, CompileError> {
    let width = width.clamp(1, 66);
    let lx = fortrans::lex::lex(free_src)?;
    let mut out = String::new();
    for line in lx.lines() {
        // Cards are blank-insensitive outside literals: tokens abut.
        let dense: String = lx.toks(line).iter().map(|t| lx.show(*t).to_string()).collect();
        // Cut points every `width` chars, nudged out of string literals.
        let chars: Vec<char> = dense.chars().collect();
        let mut pieces: Vec<String> = Vec::new();
        let mut i = 0usize;
        let mut in_str = false;
        let mut start = 0usize;
        while i < chars.len() {
            if chars[i] == '\'' {
                in_str = !in_str;
            }
            i += 1;
            if i - start >= width && !in_str && i < chars.len() {
                pieces.push(chars[start..i].iter().collect());
                start = i;
            }
        }
        if start < chars.len() {
            pieces.push(chars[start..].iter().collect());
        }
        for (k, piece) in pieces.iter().enumerate() {
            let head = match (line.omp, k) {
                (true, 0) => "!$omp ",
                (true, _) => "!$omp&",
                (false, 0) => "      ",
                (false, _) => "     &",
            };
            out.push_str(head);
            out.push_str(piece);
            out.push('\n');
        }
    }
    Ok(out)
}
