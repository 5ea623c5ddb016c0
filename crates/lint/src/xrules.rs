//! Cross-file rules (SMT008–SMT013) over the workspace model.
//!
//! These rules never read source text: they run entirely over the
//! [`FileModel`]s extracted by `model.rs` (which is what makes the
//! per-file content-hash cache sound — a file whose model is cached
//! contributes to cross-file analysis exactly as if it had been re-read).

use crate::model::{FileModel, FnDef};
use crate::rules::{Diagnostic, RuleCode};

/// Everything the cross-file rules see.
pub struct Workspace {
    /// Lintable sources: `(repo-relative path, model)`, sorted by path.
    pub files: Vec<(String, FileModel)>,
    /// Auxiliary sources consulted but not linted locally (integration
    /// test files named by rules, e.g. `crates/pipeline/tests/sanitizer.rs`).
    pub aux: Vec<(String, FileModel)>,
    /// Documentation texts: `(repo-relative path, raw contents)`.
    pub docs: Vec<(String, String)>,
}

impl Workspace {
    fn file(&self, path: &str) -> Option<&FileModel> {
        self.files.iter().find(|(p, _)| p == path).map(|(_, m)| m)
    }

    fn aux_file(&self, path: &str) -> Option<&FileModel> {
        self.aux.iter().find(|(p, _)| p == path).map(|(_, m)| m)
    }

    fn doc(&self, path: &str) -> Option<&str> {
        self.docs
            .iter()
            .find(|(p, _)| p == path)
            .map(|(_, t)| t.as_str())
    }
}

const SIM_PATH: &str = "crates/pipeline/src/sim.rs";
const SANITIZER_PATH: &str = "crates/pipeline/src/sanitizer.rs";
const SANITIZER_TESTS_PATH: &str = "crates/pipeline/tests/sanitizer.rs";
const ERROR_PATH: &str = "crates/experiments/src/error.rs";
const MAIN_PATH: &str = "crates/experiments/src/main.rs";

/// `Simulator`'s machine-capture fns (beyond the generic `save_state` /
/// `load_state` convention): a field is snapshot-covered if *any* capture
/// fn touches it and *any* restore fn touches it.
const SIM_SAVE_FNS: [&str; 3] = ["save_machine", "snapshot", "snapshot_with_run"];
const SIM_LOAD_FNS: [&str; 3] = ["load_machine", "restore", "restore_run"];

/// Run every cross-file rule.
pub fn scan_workspace(ws: &Workspace) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    snapshot_coverage(ws, &mut out);
    dispatch_exhaustiveness(ws, &mut out);
    invariant_coverage(ws, &mut out);
    hook_gating(ws, &mut out);
    exit_code_contract(ws, &mut out);
    stitch_coverage(ws, &mut out);
    out
}

fn diag(code: RuleCode, path: &str, line: usize, item: String, message: String) -> Diagnostic {
    Diagnostic {
        code,
        path: path.to_string(),
        line,
        snippet: item.clone(),
        message,
        item: Some(item),
    }
}

// ---------------------------------------------------------------------
// SMT008 — snapshot coverage
// ---------------------------------------------------------------------

fn snapshot_coverage(ws: &Workspace, out: &mut Vec<Diagnostic>) {
    for (path, m) in &ws.files {
        if !path.starts_with("crates/pipeline/") && !path.starts_with("crates/uarch/") {
            continue;
        }
        for s in &m.structs {
            if s.in_test || s.fields.is_empty() {
                continue;
            }
            let (save_fns, load_fns): (Vec<&FnDef>, Vec<&FnDef>) =
                if path == SIM_PATH && s.name == "Simulator" {
                    (
                        m.fns
                            .iter()
                            .filter(|f| {
                                !f.in_test
                                    && f.owner.as_deref() == Some("Simulator")
                                    && SIM_SAVE_FNS.contains(&f.name.as_str())
                            })
                            .collect(),
                        m.fns
                            .iter()
                            .filter(|f| {
                                !f.in_test
                                    && f.owner.as_deref() == Some("Simulator")
                                    && SIM_LOAD_FNS.contains(&f.name.as_str())
                            })
                            .collect(),
                    )
                } else {
                    // Generic convention: an inherent save_state/load_state
                    // pair marks the struct as snapshot-bearing.
                    let has_pair = m.impls.iter().any(|im| {
                        !im.in_test
                            && im.ty == s.name
                            && im.trait_name.is_none()
                            && im.methods.iter().any(|n| n == "save_state")
                    }) && m.impls.iter().any(|im| {
                        !im.in_test
                            && im.ty == s.name
                            && im.trait_name.is_none()
                            && im.methods.iter().any(|n| n == "load_state")
                    });
                    if !has_pair {
                        continue;
                    }
                    (
                        m.methods_of(&s.name, "save_state").collect(),
                        m.methods_of(&s.name, "load_state").collect(),
                    )
                };
            if save_fns.is_empty() || load_fns.is_empty() {
                continue;
            }
            for field in &s.fields {
                let saved = save_fns.iter().any(|f| f.touches_self(&field.name));
                let loaded = load_fns.iter().any(|f| f.touches_self(&field.name));
                if saved && loaded {
                    continue;
                }
                let missing = match (saved, loaded) {
                    (false, false) => "capture or restore path",
                    (false, true) => "capture path",
                    (true, false) => "restore path",
                    (true, true) => unreachable!(),
                };
                out.push(diag(
                    RuleCode::Smt008,
                    path,
                    field.line,
                    format!("{}::{}", s.name, field.name),
                    format!(
                        "field `{}` of snapshot-bearing `{}` is not touched by any {missing}; \
                         capture+restore it, or allowlist `{}#{}::{}` with a derived/scratch \
                         justification",
                        field.name, s.name, path, s.name, field.name
                    ),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------
// SMT009 — PolicyKind dispatch exhaustiveness
// ---------------------------------------------------------------------

/// The `PolicyKind` methods whose match must stay variant-exhaustive
/// (each has deliberately explicit arms — no wildcard — so a new variant
/// fails to compile *or* fails this lint, never silently misroutes).
const POLICY_DISPATCH_FNS: [&str; 4] = ["name", "parse", "build", "dispatch"];

fn dispatch_exhaustiveness(ws: &Workspace, out: &mut Vec<Diagnostic>) {
    let Some((factory_path, factory, kind)) = ws
        .files
        .iter()
        .find_map(|(p, m)| m.enum_named("PolicyKind").map(|e| (p.as_str(), m, e)))
    else {
        return;
    };
    for fname in POLICY_DISPATCH_FNS {
        let fns: Vec<&FnDef> = factory.methods_of("PolicyKind", fname).collect();
        if fns.is_empty() {
            out.push(diag(
                RuleCode::Smt009,
                factory_path,
                kind.line,
                format!("PolicyKind::{fname}"),
                format!("PolicyKind is missing required dispatch fn `{fname}`"),
            ));
            continue;
        }
        // Covered when the variant appears in a match-arm head, or —
        // for fns like `parse` whose arm heads are (masked) string
        // literals — anywhere in the fn at all.
        for v in &kind.variants {
            if !fns
                .iter()
                .any(|f| f.has_arm(&v.name) || f.mentions(&v.name))
            {
                out.push(diag(
                    RuleCode::Smt009,
                    factory_path,
                    fns[0].line,
                    format!("{}::{}", fname, v.name),
                    format!(
                        "PolicyKind::{} has no match arm in `{}` — every variant must be \
                         explicitly handled",
                        v.name, fname
                    ),
                ));
            }
        }
    }
    // Policy-contract half: every concrete type routed through `dispatch`
    // must take an explicit stance on `quiescence_safe` (skip-engine
    // safety is a per-policy decision, not a trait default), and a policy
    // that defines `warn_level` must also define `audit_order` (warn
    // semantics imply an ordering contract the sanitizer can audit).
    let dispatched: Vec<&FnDef> = factory.methods_of("PolicyKind", "dispatch").collect();
    for (path, m) in &ws.files {
        for im in &m.impls {
            if im.in_test
                || im.trait_name.as_deref() != Some("FetchPolicy")
                || !dispatched.iter().any(|f| f.mentions(&im.ty))
            {
                continue;
            }
            let methods: Vec<&str> = m
                .impls
                .iter()
                .filter(|i| {
                    !i.in_test && i.ty == im.ty && i.trait_name.as_deref() == Some("FetchPolicy")
                })
                .flat_map(|i| i.methods.iter().map(String::as_str))
                .collect();
            if !methods.contains(&"quiescence_safe") {
                out.push(diag(
                    RuleCode::Smt009,
                    path,
                    im.line,
                    format!("{}::quiescence_safe", im.ty),
                    format!(
                        "`{}` is dispatched by PolicyKind but relies on the trait default for \
                         `quiescence_safe`; state the skip-safety contract explicitly",
                        im.ty
                    ),
                ));
            }
            if methods.contains(&"warn_level") && !methods.contains(&"audit_order") {
                out.push(diag(
                    RuleCode::Smt009,
                    path,
                    im.line,
                    format!("{}::audit_order", im.ty),
                    format!(
                        "`{}` defines `warn_level` but not `audit_order`; warn-driven ordering \
                         must expose its audit contract",
                        im.ty
                    ),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------
// SMT010 — invariant coverage
// ---------------------------------------------------------------------

fn invariant_coverage(ws: &Workspace, out: &mut Vec<Diagnostic>) {
    let Some(san) = ws.file(SANITIZER_PATH) else {
        return;
    };
    let Some(inv) = san.enum_named("InvariantCode") else {
        return;
    };
    // The INVxxx codes, in declaration order (the `code()` match returns
    // them variant by variant, so first-occurrence order pairs 1:1 with
    // the variant list).
    let mut codes: Vec<&str> = Vec::new();
    for (_, s) in &san.strings {
        if is_inv_code(s) && !codes.contains(&s.as_str()) {
            codes.push(s);
        }
    }
    if codes.len() != inv.variants.len() {
        out.push(diag(
            RuleCode::Smt010,
            SANITIZER_PATH,
            inv.line,
            "InvariantCode".to_string(),
            format!(
                "cannot pair InvariantCode variants with INVxxx strings: {} variants vs {} \
                 distinct codes",
                inv.variants.len(),
                codes.len()
            ),
        ));
        return;
    }
    let tests = ws.aux_file(SANITIZER_TESTS_PATH);
    let design = ws.doc("DESIGN.md");
    for (v, code) in inv.variants.iter().zip(&codes) {
        let tested = tests.is_some_and(|t| {
            t.fns.iter().any(|f| f.mentions(&v.name))
                || t.strings.iter().any(|(_, s)| s.contains(code))
        });
        if !tested {
            out.push(diag(
                RuleCode::Smt010,
                SANITIZER_PATH,
                v.line,
                format!("InvariantCode::{}", v.name),
                format!(
                    "{code} ({}) has no firing mutation test in {SANITIZER_TESTS_PATH}",
                    v.name
                ),
            ));
        }
        let documented = design.is_some_and(|t| t.contains(code));
        if !documented {
            out.push(diag(
                RuleCode::Smt010,
                SANITIZER_PATH,
                v.line,
                format!("InvariantCode::{}", v.name),
                format!("{code} ({}) is not documented in DESIGN.md", v.name),
            ));
        }
    }
}

fn is_inv_code(s: &str) -> bool {
    s.len() == 6 && s.starts_with("INV") && s[3..].bytes().all(|b| b.is_ascii_digit())
}

// ---------------------------------------------------------------------
// SMT011 — structural hook gating
// ---------------------------------------------------------------------

fn hook_gating(ws: &Workspace, out: &mut Vec<Diagnostic>) {
    for (path, m) in &ws.files {
        if !path.starts_with("crates/pipeline/") {
            continue;
        }
        for h in &m.hook_calls {
            if h.in_test || h.gated {
                continue;
            }
            out.push(diag(
                RuleCode::Smt011,
                path,
                h.line,
                h.hook.clone(),
                format!(
                    "`{}` call is not structurally dominated by a positive `ENABLED` branch; \
                     move it inside the monomorphized gate",
                    h.hook
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------
// SMT012 — exit-code contract
// ---------------------------------------------------------------------

/// The documented process exit codes (see README.md / EXPERIMENTS.md).
const EXIT_CONTRACT: [i64; 6] = [0, 1, 2, 3, 4, 5];

fn exit_code_contract(ws: &Workspace, out: &mut Vec<Diagnostic>) {
    // (a) The EXIT_* constants form exactly the documented set.
    if let Some(err) = ws.file(ERROR_PATH) {
        let exits: Vec<_> = err
            .consts
            .iter()
            .filter(|c| !c.in_test && c.name.starts_with("EXIT_"))
            .collect();
        let mut seen: Vec<i64> = Vec::new();
        for c in &exits {
            match c.value {
                Some(v) if EXIT_CONTRACT.contains(&v) => {
                    if seen.contains(&v) {
                        out.push(diag(
                            RuleCode::Smt012,
                            ERROR_PATH,
                            c.line,
                            c.name.clone(),
                            format!("`{}` duplicates exit code {v}", c.name),
                        ));
                    }
                    seen.push(v);
                }
                Some(v) => out.push(diag(
                    RuleCode::Smt012,
                    ERROR_PATH,
                    c.line,
                    c.name.clone(),
                    format!(
                        "`{}` = {v} is outside the documented 0–5 exit-code contract",
                        c.name
                    ),
                )),
                None => out.push(diag(
                    RuleCode::Smt012,
                    ERROR_PATH,
                    c.line,
                    c.name.clone(),
                    format!("`{}` must be a literal integer exit code", c.name),
                )),
            }
        }
        for v in EXIT_CONTRACT {
            if !seen.contains(&v) {
                out.push(diag(
                    RuleCode::Smt012,
                    ERROR_PATH,
                    exits.first().map_or(1, |c| c.line),
                    format!("EXIT_{v}"),
                    format!("no EXIT_* constant defines documented exit code {v}"),
                ));
            }
        }
    }
    // (b) No raw integer literals at exit() call sites.
    for (path, m) in &ws.files {
        if !path.starts_with("crates/experiments/") {
            continue;
        }
        for e in &m.exit_calls {
            if e.in_test || !e.has_literal {
                continue;
            }
            out.push(diag(
                RuleCode::Smt012,
                path,
                e.line,
                "exit-literal".to_string(),
                "raw integer literal in exit(); use the named EXIT_* constants".to_string(),
            ));
        }
    }
    // (c) The CLI usage text documents every code.
    if let Some(main) = ws.file(MAIN_PATH) {
        let usage = main
            .strings
            .iter()
            .find(|(_, s)| s.to_ascii_lowercase().contains("exit codes"));
        match usage {
            None => out.push(diag(
                RuleCode::Smt012,
                MAIN_PATH,
                1,
                "usage-exit-codes".to_string(),
                "usage text has no `exit codes` section".to_string(),
            )),
            Some((line, text)) => {
                for v in EXIT_CONTRACT {
                    if !mentions_digit(text, v) {
                        out.push(diag(
                            RuleCode::Smt012,
                            MAIN_PATH,
                            *line,
                            "usage-exit-codes".to_string(),
                            format!("usage text's exit-codes section does not mention {v}"),
                        ));
                    }
                }
            }
        }
    }
    // (d) README.md / EXPERIMENTS.md document every code near their
    // exit-code anchor.
    for doc_path in ["README.md", "EXPERIMENTS.md"] {
        let Some(text) = ws.doc(doc_path) else {
            continue;
        };
        let lower = text.to_ascii_lowercase();
        let Some(anchor) = lower.find("exit code") else {
            out.push(diag(
                RuleCode::Smt012,
                doc_path,
                1,
                "doc-exit-codes".to_string(),
                format!("{doc_path} has no `exit code` section"),
            ));
            continue;
        };
        let anchor_line = crate::lexer::line_of(text, anchor);
        let window: String = text
            .lines()
            .skip(anchor_line.saturating_sub(1))
            .take(15)
            .collect::<Vec<_>>()
            .join("\n");
        for v in EXIT_CONTRACT {
            if !mentions_digit(&window, v) {
                out.push(diag(
                    RuleCode::Smt012,
                    doc_path,
                    anchor_line,
                    "doc-exit-codes".to_string(),
                    format!(
                        "{doc_path}'s exit-code section does not mention code {v} within 15 \
                         lines of the anchor"
                    ),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------
// SMT013 — fragment-stitch coverage
// ---------------------------------------------------------------------

/// One stitched record type: where the struct lives, and the merge
/// functions that must each handle every one of its fields.
struct StitchSurface {
    struct_path: &'static str,
    struct_name: &'static str,
    merge_path: &'static str,
    merge_fns: &'static [&'static str],
}

/// The fragment stitcher's merge surface. `ThreadStats` is summed as
/// per-fragment deltas by the replay engine; `Interval`/`ThreadWindow`
/// are merged index-by-index when per-fragment interval series are
/// stitched. The merge fns are deliberately written field-exhaustively
/// (struct literal or one `+=` per field) so this rule can hold them to
/// the struct definitions.
const STITCH_SURFACES: [StitchSurface; 3] = [
    StitchSurface {
        struct_path: "crates/pipeline/src/stats.rs",
        struct_name: "ThreadStats",
        merge_path: "crates/pipeline/src/fragment.rs",
        merge_fns: &["stats_delta", "stats_add"],
    },
    StitchSurface {
        struct_path: "crates/obs/src/interval.rs",
        struct_name: "Interval",
        merge_path: "crates/obs/src/interval.rs",
        merge_fns: &["merge_interval"],
    },
    StitchSurface {
        struct_path: "crates/obs/src/interval.rs",
        struct_name: "ThreadWindow",
        merge_path: "crates/obs/src/interval.rs",
        merge_fns: &["merge_thread_window"],
    },
];

fn stitch_coverage(ws: &Workspace, out: &mut Vec<Diagnostic>) {
    for surface in &STITCH_SURFACES {
        let Some(sm) = ws.file(surface.struct_path) else {
            continue; // stitcher not in this workspace (synthetic trees)
        };
        let Some(s) = sm
            .structs
            .iter()
            .find(|s| !s.in_test && s.name == surface.struct_name)
        else {
            continue;
        };
        let merge_model = ws.file(surface.merge_path);
        let merges: Vec<&FnDef> = surface
            .merge_fns
            .iter()
            .filter_map(|name| {
                merge_model.and_then(|m| {
                    m.fns
                        .iter()
                        .find(|f| !f.in_test && f.owner.is_none() && f.name == *name)
                })
            })
            .collect();
        if merges.len() != surface.merge_fns.len() {
            let missing: Vec<&str> = surface
                .merge_fns
                .iter()
                .filter(|n| !merges.iter().any(|f| f.name == **n))
                .copied()
                .collect();
            out.push(diag(
                RuleCode::Smt013,
                surface.struct_path,
                s.line,
                surface.struct_name.to_string(),
                format!(
                    "stitched `{}` has no merge fn(s) {} in {}; fragment replay cannot \
                     prove bit-identity without them",
                    surface.struct_name,
                    missing.join(", "),
                    surface.merge_path
                ),
            ));
            continue;
        }
        for field in &s.fields {
            let missing: Vec<&str> = merges
                .iter()
                .filter(|f| !f.mentions(&field.name))
                .map(|f| f.name.as_str())
                .collect();
            if missing.is_empty() {
                continue;
            }
            out.push(diag(
                RuleCode::Smt013,
                surface.struct_path,
                field.line,
                format!("{}::{}", surface.struct_name, field.name),
                format!(
                    "field `{}` of stitched `{}` is not handled by merge fn(s) {} in {}; \
                     merge it, or allowlist `{}#{}::{}` with a non-additive justification",
                    field.name,
                    surface.struct_name,
                    missing.join(", "),
                    surface.merge_path,
                    surface.struct_path,
                    surface.struct_name,
                    field.name
                ),
            ));
        }
    }
}

/// True when `text` contains the (single-digit) value as a standalone
/// number — not as part of a longer number or identifier.
fn mentions_digit(text: &str, v: i64) -> bool {
    let needle = (b'0' + v as u8) as char;
    let b = text.as_bytes();
    text.char_indices().any(|(i, c)| {
        c == needle
            && (i == 0 || !b[i - 1].is_ascii_alphanumeric())
            && (i + 1 >= b.len() || !b[i + 1].is_ascii_alphanumeric())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::extract;

    fn ws(files: Vec<(&str, &str)>) -> Workspace {
        Workspace {
            files: files
                .into_iter()
                .map(|(p, src)| (p.to_string(), extract(src)))
                .collect(),
            aux: Vec::new(),
            docs: Vec::new(),
        }
    }

    fn codes_of(diags: &[Diagnostic]) -> Vec<&str> {
        diags.iter().map(|d| d.code.as_str()).collect()
    }

    #[test]
    fn smt008_flags_uncaptured_field() {
        let src = r#"
pub struct Wheel {
    len: usize,
    mask: u64,
}
impl Wheel {
    pub fn save_state(&self, out: &mut Vec<u8>) { put(out, self.len); }
    pub fn load_state(&mut self, b: &[u8]) { self.len = 0; self.mask = 1; }
}
"#;
        let w = ws(vec![("crates/pipeline/src/events.rs", src)]);
        let diags = scan_workspace(&w);
        let hits: Vec<_> = diags
            .iter()
            .filter(|d| d.code == RuleCode::Smt008)
            .collect();
        assert_eq!(hits.len(), 1, "{:?}", codes_of(&diags));
        assert_eq!(hits[0].item.as_deref(), Some("Wheel::mask"));
        assert!(hits[0].message.contains("capture path"));
    }

    #[test]
    fn smt008_ignores_structs_without_snapshot_pair() {
        let src = r#"
pub struct Scratch { a: u64 }
impl Scratch {
    pub fn save_state(&self, out: &mut Vec<u8>) { put(out, self.a); }
}
"#;
        let w = ws(vec![("crates/pipeline/src/x.rs", src)]);
        assert!(scan_workspace(&w)
            .iter()
            .all(|d| d.code != RuleCode::Smt008));
    }

    #[test]
    fn smt009_flags_missing_dispatch_arm() {
        let src = r#"
pub enum PolicyKind { A, B }
impl PolicyKind {
    pub fn name(self) -> &'static str {
        match self { PolicyKind::A => "A", PolicyKind::B => "B" }
    }
    pub fn parse(s: &str) -> Option<PolicyKind> {
        match s { "A" => Some(PolicyKind::A), "B" => Some(PolicyKind::B), _ => None }
    }
    pub fn build(self) -> u32 {
        match self { PolicyKind::A => 1, PolicyKind::B => 2 }
    }
    pub fn dispatch(self) -> u32 {
        match self { PolicyKind::A => 1 }
    }
}
"#;
        let w = ws(vec![("crates/core/src/factory.rs", src)]);
        let diags = scan_workspace(&w);
        let hits: Vec<_> = diags
            .iter()
            .filter(|d| d.code == RuleCode::Smt009)
            .collect();
        assert_eq!(hits.len(), 1, "{diags:?}");
        assert_eq!(hits[0].item.as_deref(), Some("dispatch::B"));
    }

    #[test]
    fn smt009_requires_explicit_quiescence_safe() {
        let factory = r#"
pub enum PolicyKind { A }
impl PolicyKind {
    pub fn name(self) -> &'static str { match self { PolicyKind::A => "A" } }
    pub fn parse(s: &str) -> Option<PolicyKind> {
        match s { "A" => Some(PolicyKind::A), _ => None }
    }
    pub fn build(self) -> u32 { match self { PolicyKind::A => 1 } }
    pub fn dispatch<V>(self, v: V) -> u32 {
        match self { PolicyKind::A => v.visit(Alpha::new()) }
    }
}
"#;
        let alpha = r#"
pub struct Alpha;
impl FetchPolicy for Alpha {
    fn order(&self) -> u32 { 0 }
}
"#;
        let w = ws(vec![
            ("crates/core/src/factory.rs", factory),
            ("crates/core/src/alpha.rs", alpha),
        ]);
        let diags = scan_workspace(&w);
        assert!(
            diags.iter().any(|d| d.code == RuleCode::Smt009
                && d.item.as_deref() == Some("Alpha::quiescence_safe")),
            "{diags:?}"
        );
    }

    #[test]
    fn smt010_pairs_variants_with_codes_and_checks_tests_and_docs() {
        let san = r#"
pub enum InvariantCode { FooCheck, BarCheck }
impl InvariantCode {
    pub fn code(self) -> &'static str {
        match self {
            InvariantCode::FooCheck => "INV001",
            InvariantCode::BarCheck => "INV002",
        }
    }
}
"#;
        let tests_src = r#"
#[test]
fn foo_fires() { assert_caught(Mutation::Leak, InvariantCode::FooCheck); }
"#;
        let w = Workspace {
            files: vec![(SANITIZER_PATH.to_string(), extract(san))],
            aux: vec![(SANITIZER_TESTS_PATH.to_string(), extract(tests_src))],
            docs: vec![(
                "DESIGN.md".to_string(),
                "INV001 is documented here.".to_string(),
            )],
        };
        let diags = scan_workspace(&w);
        let hits: Vec<_> = diags
            .iter()
            .filter(|d| d.code == RuleCode::Smt010)
            .collect();
        // BarCheck: untested AND undocumented → two findings; FooCheck clean.
        assert_eq!(hits.len(), 2, "{diags:?}");
        assert!(hits
            .iter()
            .all(|d| d.item.as_deref() == Some("InvariantCode::BarCheck")));
    }

    #[test]
    fn smt011_flags_structurally_ungated_hook() {
        let src = r#"
impl<P: Probe> Sim<P> {
    fn step(&mut self) {
        if P::ENABLED {
            self.probe.on_cycle_state(1);
        }
        self.probe.on_gate(2);
    }
}
"#;
        let w = ws(vec![("crates/pipeline/src/sim.rs", src)]);
        let diags = scan_workspace(&w);
        let hits: Vec<_> = diags
            .iter()
            .filter(|d| d.code == RuleCode::Smt011)
            .collect();
        assert_eq!(hits.len(), 1, "{diags:?}");
        assert_eq!(hits[0].item.as_deref(), Some("on_gate"));
    }

    #[test]
    fn smt012_checks_consts_calls_usage_and_docs() {
        let err = r#"
pub const EXIT_OK: i32 = 0;
pub const EXIT_RUNTIME: i32 = 1;
pub const EXIT_USAGE: i32 = 2;
pub const EXIT_PARTIAL: i32 = 3;
pub const EXIT_CHAOS: i32 = 4;
pub const EXIT_INT: i32 = 5;
pub const EXIT_BOGUS: i32 = 9;
"#;
        let main_src = r#"
const USAGE: &str = "usage...\nexit codes: 0 ok, 1 runtime, 2 usage, 3 partial, 4 chaos";
fn main() { std::process::exit(3); }
"#;
        let w = Workspace {
            files: vec![
                (ERROR_PATH.to_string(), extract(err)),
                (MAIN_PATH.to_string(), extract(main_src)),
            ],
            aux: Vec::new(),
            docs: vec![
                (
                    "README.md".to_string(),
                    "## Exit codes\n`0` `1` `2` `3` `4` `5`\n".to_string(),
                ),
                ("EXPERIMENTS.md".to_string(), "no section here".to_string()),
            ],
        };
        let diags = scan_workspace(&w);
        let items: Vec<_> = diags
            .iter()
            .filter(|d| d.code == RuleCode::Smt012)
            .map(|d| d.item.clone().unwrap_or_default())
            .collect();
        assert!(items.contains(&"EXIT_BOGUS".to_string()), "{items:?}");
        assert!(items.contains(&"exit-literal".to_string()), "{items:?}");
        // usage text misses code 5
        assert!(items.contains(&"usage-exit-codes".to_string()), "{items:?}");
        // EXPERIMENTS.md has no section at all
        assert!(items.contains(&"doc-exit-codes".to_string()), "{items:?}");
    }
    const STATS_SRC: &str = r#"
pub struct ThreadStats {
    pub fetched: u64,
    pub committed: u64,
}
"#;

    #[test]
    fn smt013_flags_merge_fn_missing_a_field() {
        // stats_add forgets `committed`.
        let frag = r#"
pub fn stats_delta(end: &ThreadStats, start: &ThreadStats) -> ThreadStats {
    ThreadStats { fetched: end.fetched - start.fetched, committed: end.committed - start.committed }
}
pub fn stats_add(acc: &mut ThreadStats, d: &ThreadStats) {
    acc.fetched += d.fetched;
}
"#;
        let diags = scan_workspace(&ws(vec![
            ("crates/pipeline/src/stats.rs", STATS_SRC),
            ("crates/pipeline/src/fragment.rs", frag),
        ]));
        let hits: Vec<_> = diags
            .iter()
            .filter(|d| d.code == RuleCode::Smt013)
            .collect();
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].item.as_deref(), Some("ThreadStats::committed"));
        assert!(hits[0].message.contains("stats_add"), "{}", hits[0].message);
        assert!(
            !hits[0].message.contains("stats_delta"),
            "stats_delta does handle the field: {}",
            hits[0].message
        );
    }

    #[test]
    fn smt013_is_clean_when_every_merge_fn_handles_every_field() {
        let frag = r#"
pub fn stats_delta(end: &ThreadStats, start: &ThreadStats) -> ThreadStats {
    ThreadStats { fetched: end.fetched - start.fetched, committed: end.committed - start.committed }
}
pub fn stats_add(acc: &mut ThreadStats, d: &ThreadStats) {
    acc.fetched += d.fetched;
    acc.committed += d.committed;
}
"#;
        let diags = scan_workspace(&ws(vec![
            ("crates/pipeline/src/stats.rs", STATS_SRC),
            ("crates/pipeline/src/fragment.rs", frag),
        ]));
        assert!(
            diags.iter().all(|d| d.code != RuleCode::Smt013),
            "{diags:?}"
        );
    }

    #[test]
    fn smt013_flags_a_missing_merge_fn_outright() {
        // The struct is stitched but fragment.rs lost stats_add entirely.
        let frag = r#"
pub fn stats_delta(end: &ThreadStats, start: &ThreadStats) -> ThreadStats {
    ThreadStats { fetched: end.fetched - start.fetched, committed: end.committed - start.committed }
}
"#;
        let diags = scan_workspace(&ws(vec![
            ("crates/pipeline/src/stats.rs", STATS_SRC),
            ("crates/pipeline/src/fragment.rs", frag),
        ]));
        let hits: Vec<_> = diags
            .iter()
            .filter(|d| d.code == RuleCode::Smt013)
            .collect();
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].item.as_deref(), Some("ThreadStats"));
        assert!(hits[0].message.contains("stats_add"), "{}", hits[0].message);
        // A workspace without the stitcher files at all stays silent.
        let diags = scan_workspace(&ws(vec![("crates/pipeline/src/other.rs", "fn f() {}")]));
        assert!(diags.iter().all(|d| d.code != RuleCode::Smt013));
    }
}
