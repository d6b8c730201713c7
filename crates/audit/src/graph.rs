//! Conservative intra-workspace call graph and panic-site extraction.
//!
//! Resolution strategy (deliberately over-approximating — the passes
//! prove *absence* of panic reachability, so extra edges are safe,
//! missing edges are not):
//!
//! - `name(...)` — free call: every workspace free fn named `name`.
//! - `Qual::name(...)` — `Self` resolves to the enclosing impl type;
//!   a workspace type/trait qualifier narrows to that type's methods;
//!   any other qualifier (module path, crate name) falls back to free
//!   fns by name.
//! - `recv.name(...)` / `<T as Tr>::name(...)` — every workspace method
//!   named `name`, regardless of receiver type.
//! - Calls that resolve to *no* workspace item are external (std or a
//!   shim). Externals are classified by the deny table in
//!   [`crate::config`]: a handful of known-panicking std APIs become
//!   [`SiteKind::DeniedCall`] sites; everything else is allowed.
//!
//! Two refinements keep the graph honest without drowning it:
//!
//! - **Isolation**: tokens inside a `catch_unwind(...)` argument list
//!   are marked isolated. A panic site there cannot unwind past the
//!   caller, and call edges *originating* there do not propagate
//!   reachability (the serve engine uses this to turn compute-engine
//!   panics into typed `F006` responses).
//! - **Test exclusion**: tokens in `#[cfg(test)]` scopes, `#[test]`
//!   fns, and `tests/`/`benches/` files produce no edges or sites.

use crate::config;
use crate::parse::{FnItem, Model, SourceFile, NO_OWNER};
use std::collections::HashMap;

/// What kind of panic site was found.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SiteKind {
    /// `.unwrap()` / `.unwrap_err()`.
    Unwrap,
    /// `.expect(..)` / `.expect_err(..)`.
    Expect,
    /// `panic!` / `unreachable!` / `todo!` / `unimplemented!` /
    /// `assert!` / `assert_eq!` / `assert_ne!` (name recorded).
    PanicMacro(String),
    /// `debug_assert!` family — debug-only panic, reported as Warning.
    DebugAssert(String),
    /// `x[i]` slice/array indexing.
    Index,
    /// Unchecked arithmetic (`+ - * / %` and compound assignments) —
    /// overflow panics in debug builds; `/`/`%` by zero in all builds.
    Arith(&'static str),
    /// A call to an external API on the deny table (e.g. `split_at`).
    DeniedCall(String),
}

impl SiteKind {
    /// Short human label for messages.
    pub fn label(&self) -> String {
        match self {
            SiteKind::Unwrap => "unwrap".into(),
            SiteKind::Expect => "expect".into(),
            SiteKind::PanicMacro(m) => format!("{m}!"),
            SiteKind::DebugAssert(m) => format!("{m}!"),
            SiteKind::Index => "slice indexing".into(),
            SiteKind::Arith(op) => format!("unchecked `{op}`"),
            SiteKind::DeniedCall(n) => format!("call to panicking API `{n}`"),
        }
    }
}

/// One potential panic site inside an fn body.
#[derive(Clone, Debug)]
pub struct Site {
    /// The fn whose body contains the site.
    pub fn_id: u32,
    /// Index into [`Model::files`].
    pub file: u32,
    /// 1-based source line.
    pub line: u32,
    pub kind: SiteKind,
    /// Inside a `catch_unwind(...)` extent — cannot unwind to callers.
    pub isolated: bool,
}

/// A call edge between two workspace fns.
#[derive(Clone, Debug)]
pub struct Edge {
    pub from: u32,
    pub to: u32,
    /// Index into [`Model::files`] (call site location).
    pub file: u32,
    /// 1-based line of the call site.
    pub line: u32,
    /// Call site sits inside a `catch_unwind(...)` extent.
    pub isolated: bool,
    /// Resolved by bare method name (`.name(` / `<T as Tr>::name(`) —
    /// the most over-approximate resolution mode. Feature-gate and
    /// hygiene passes damp these edges to limit false positives; the
    /// panic pass follows them (over-approximation is safe there).
    pub methodish: bool,
}

/// The assembled graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    pub edges: Vec<Edge>,
    pub sites: Vec<Site>,
    /// Outgoing edge indices per fn id.
    pub adj: Vec<Vec<u32>>,
}

/// Name-resolution index over the model.
struct Index<'m> {
    free: HashMap<&'m str, Vec<u32>>,
    methods: HashMap<&'m str, Vec<u32>>,
    /// Trait methods with a default body, by name: what a method call
    /// on a type without its own method of that name, or on a generic
    /// `V: Trait`, can still run.
    defaults: HashMap<&'m str, Vec<u32>>,
    typed: HashMap<(&'m str, &'m str), Vec<u32>>,
    type_names: std::collections::HashSet<&'m str>,
}

impl<'m> Index<'m> {
    fn build(model: &'m Model) -> Self {
        let mut ix = Index {
            free: HashMap::new(),
            methods: HashMap::new(),
            defaults: HashMap::new(),
            typed: HashMap::new(),
            type_names: std::collections::HashSet::new(),
        };
        for f in &model.fns {
            if !f.has_body {
                // Trait method declarations resolve to their impls, which
                // are indexed separately; a decl itself has nothing to run.
                continue;
            }
            match (&f.self_type, &f.trait_name) {
                (None, None) => ix.free.entry(&f.name).or_default().push(f.id),
                _ => {
                    ix.methods.entry(&f.name).or_default().push(f.id);
                    match &f.self_type {
                        Some(ty) => {
                            ix.typed.entry((ty, &f.name)).or_default().push(f.id);
                            ix.type_names.insert(ty);
                        }
                        None => ix.defaults.entry(&f.name).or_default().push(f.id),
                    }
                    if let Some(tr) = &f.trait_name {
                        ix.typed.entry((tr, &f.name)).or_default().push(f.id);
                        ix.type_names.insert(tr);
                    }
                }
            }
        }
        ix
    }
}

/// Builds the call graph and extracts every panic site.
pub fn build(model: &Model) -> CallGraph {
    let ix = Index::build(model);
    let mut g = CallGraph {
        edges: Vec::new(),
        sites: Vec::new(),
        adj: vec![Vec::new(); model.fns.len()],
    };
    for (file_id, file) in model.files.iter().enumerate() {
        let isolated = isolation_map(file);
        scan_file(model, &ix, file_id as u32, file, &isolated, &mut g);
    }
    g
}

/// Marks every token inside a `catch_unwind ( ... )` argument list.
fn isolation_map(file: &SourceFile) -> Vec<bool> {
    let toks = &file.toks;
    let mut iso = vec![false; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].is_ident("catch_unwind") {
            // Find the opening paren (allow `catch_unwind(` directly).
            let mut j = i + 1;
            if j < toks.len() && toks[j].is_punct("(") {
                let mut depth = 0i32;
                let start = j;
                while j < toks.len() {
                    if toks[j].is_punct("(") {
                        depth += 1;
                    } else if toks[j].is_punct(")") {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    j += 1;
                }
                for slot in iso.iter_mut().take(j.min(toks.len())).skip(start) {
                    *slot = true;
                }
                i = j;
                continue;
            }
        }
        i += 1;
    }
    iso
}

/// Scans one file's fn bodies for calls and sites.
fn scan_file(
    model: &Model,
    ix: &Index<'_>,
    file_id: u32,
    file: &SourceFile,
    isolated: &[bool],
    g: &mut CallGraph,
) {
    use crate::lex::Tok;
    let toks = &file.toks;
    // Per-fn signature end, so sites in signatures (default parameter
    // expressions do not exist in Rust; bounds and where clauses do) are
    // never scanned.
    let sig_end: HashMap<u32, u32> = model
        .fns_in_file(file_id)
        .map(|f| (f.id, sig_end_of(f, file)))
        .collect();
    for i in 0..toks.len() {
        let owner = file.owner[i];
        if owner == NO_OWNER || file.in_test[i] {
            continue;
        }
        if sig_end.get(&owner).is_some_and(|&e| (i as u32) < e) {
            continue; // signature tokens: bounds `+`, array types, etc.
        }
        let owner_fn = &model.fns[owner as usize];
        if owner_fn.is_test {
            continue;
        }
        let line = toks[i].line;
        let iso = isolated[i];
        match &toks[i].tok {
            Tok::Ident(name) => {
                let next = toks.get(i + 1);
                if next.is_some_and(|t| t.is_punct("!")) {
                    if let Some(kind) = macro_site(name) {
                        g.sites.push(Site {
                            fn_id: owner,
                            file: file_id,
                            line,
                            kind,
                            isolated: iso,
                        });
                    }
                } else if next.is_some_and(|t| t.is_punct("(")) {
                    handle_call(model, ix, toks, i, name, owner, file_id, line, iso, g);
                } else if i >= 2 && toks[i - 1].is_punct("::") {
                    // `Type::name` as a value (`.map(RowTable::max_row_len)`)
                    // may be called wherever the value goes.
                    let ty = match toks[i - 2].ident() {
                        Some("Self") => model.fns[owner as usize].self_type.as_deref(),
                        q => q,
                    };
                    let to = ty.and_then(|ty| ix.typed.get(&(ty, name.as_str())));
                    for &to in to.into_iter().flatten() {
                        push_edge(g, owner, to, file_id, line, iso, false);
                    }
                }
            }
            Tok::Punct("[") if i > 0 && operand_like(&toks[i - 1].tok) => {
                g.sites.push(Site {
                    fn_id: owner,
                    file: file_id,
                    line,
                    kind: SiteKind::Index,
                    isolated: iso,
                });
            }
            Tok::Punct(op @ ("+" | "-" | "*" | "/" | "%"))
                if i > 0 && arith_operand(&toks[i - 1].tok) =>
            {
                g.sites.push(Site {
                    fn_id: owner,
                    file: file_id,
                    line,
                    kind: SiteKind::Arith(op),
                    isolated: iso,
                });
            }
            Tok::Punct(op @ ("+=" | "-=" | "*=" | "/=" | "%=")) => {
                g.sites.push(Site {
                    fn_id: owner,
                    file: file_id,
                    line,
                    kind: SiteKind::Arith(op),
                    isolated: iso,
                });
            }
            _ => {}
        }
    }
}

/// The token index just past an fn item's signature (its body `{`).
fn sig_end_of(f: &FnItem, file: &SourceFile) -> u32 {
    // span.0 is the `fn` keyword; scan to the body `{` like the parser
    // did. Cheaper to recompute than to store twice.
    let mut i = f.span.0 as usize + 1;
    let toks = &file.toks;
    let mut paren = 0i32;
    let mut angle = 0i32;
    while i < toks.len() && (i as u32) < f.span.1 {
        match &toks[i].tok {
            crate::lex::Tok::Punct("(") | crate::lex::Tok::Punct("[") => paren += 1,
            crate::lex::Tok::Punct(")") | crate::lex::Tok::Punct("]") => paren -= 1,
            crate::lex::Tok::Punct("<") if paren == 0 => angle += 1,
            crate::lex::Tok::Punct(">") if paren == 0 => angle = (angle - 1).max(0),
            crate::lex::Tok::Punct("<<") if paren == 0 => angle += 2,
            crate::lex::Tok::Punct(">>") if paren == 0 => angle = (angle - 2).max(0),
            crate::lex::Tok::Punct("{") | crate::lex::Tok::Punct(";")
                if paren == 0 && angle == 0 =>
            {
                return i as u32 + 1;
            }
            _ => {}
        }
        i += 1;
    }
    f.span.0 + 1
}

/// Whether `prev` can be the receiver of an index expression. Keywords
/// are excluded: `for x in [a, b]`, `return [x]`, `&mut [0; N]` start
/// array literals, not index expressions.
fn operand_like(prev: &crate::lex::Tok) -> bool {
    use crate::lex::Tok;
    match prev {
        Tok::Ident(s) => !matches!(
            s.as_str(),
            "in" | "return"
                | "break"
                | "if"
                | "else"
                | "match"
                | "mut"
                | "ref"
                | "move"
                | "dyn"
                | "impl"
                | "as"
                | "where"
                | "let"
                | "const"
                | "static"
        ),
        Tok::Punct(")") | Tok::Punct("]") => true,
        _ => false,
    }
}

/// Whether `prev` makes a following `+ - * / %` a binary operator.
fn arith_operand(prev: &crate::lex::Tok) -> bool {
    use crate::lex::Tok;
    match prev {
        Tok::Ident(s) => !matches!(
            s.as_str(),
            // `dyn A + B`, `impl A + B`, `return -x`, `in -1..`, …
            "dyn"
                | "impl"
                | "return"
                | "in"
                | "as"
                | "where"
                | "break"
                | "if"
                | "else"
                | "match"
                | "mut"
                | "ref"
                | "move"
        ),
        Tok::Lit(_) | Tok::Punct(")") | Tok::Punct("]") => true,
        _ => false,
    }
}

/// Panic-family macro classification.
fn macro_site(name: &str) -> Option<SiteKind> {
    match name {
        "panic" | "unreachable" | "todo" | "unimplemented" | "assert" | "assert_eq"
        | "assert_ne" => Some(SiteKind::PanicMacro(name.to_string())),
        "debug_assert" | "debug_assert_eq" | "debug_assert_ne" => {
            Some(SiteKind::DebugAssert(name.to_string()))
        }
        _ => None,
    }
}

/// Resolves one `name(` occurrence: emits edges to workspace candidates
/// or a site/nothing for externals.
#[allow(clippy::too_many_arguments)]
fn handle_call(
    model: &Model,
    ix: &Index<'_>,
    toks: &[crate::lex::Spanned],
    i: usize,
    name: &str,
    owner: u32,
    file_id: u32,
    line: u32,
    iso: bool,
    g: &mut CallGraph,
) {
    // Method-style sites are handled here too: `.unwrap(`, `.expect(`.
    let prev_dot = i > 0 && toks[i - 1].is_punct(".");
    if prev_dot {
        match name {
            "unwrap" | "unwrap_err" => {
                g.sites.push(Site {
                    fn_id: owner,
                    file: file_id,
                    line,
                    kind: SiteKind::Unwrap,
                    isolated: iso,
                });
                return;
            }
            "expect" | "expect_err" => {
                g.sites.push(Site {
                    fn_id: owner,
                    file: file_id,
                    line,
                    kind: SiteKind::Expect,
                    isolated: iso,
                });
                return;
            }
            _ => {}
        }
    }
    let methodish =
        prev_dot || (i > 0 && toks[i - 1].is_punct("::") && qualified_by_angle(toks, i));
    let candidates: Vec<u32> = if prev_dot {
        resolve_method(model, ix, toks, i, name, owner)
    } else if methodish {
        // `Type::<args>::name(` turbofish — recover the base type;
        // `<T as Tr>::name(` — all methods by name.
        match turbofish_base(toks, i) {
            Some(q) if ix.type_names.contains(q) => {
                ix.typed.get(&(q, name)).cloned().unwrap_or_default()
            }
            Some(_) => Vec::new(), // non-workspace type — external
            None => ix.methods.get(name).cloned().unwrap_or_default(),
        }
    } else if i > 0 && toks[i - 1].is_punct("::") {
        // `Qual::name(` — inspect the last path segment.
        match toks.get(i.wrapping_sub(2)).and_then(|t| t.ident()) {
            Some("Self") => {
                let self_ty = model.fns[owner as usize].self_type.clone();
                self_ty
                    .and_then(|ty| ix.typed.get(&(ty.as_str(), name)).cloned())
                    .unwrap_or_default()
            }
            Some(q) if ix.type_names.contains(q) => {
                ix.typed.get(&(q, name)).cloned().unwrap_or_default()
            }
            _ => ix.free.get(name).cloned().unwrap_or_default(),
        }
    } else {
        ix.free.get(name).cloned().unwrap_or_default()
    };
    // Enforce the declared dependency structure: a bare name resolving
    // into a crate the caller does not depend on is a coincidence of
    // naming, not a possible call.
    let from_crate = &model.files[model.fns[owner as usize].file as usize].crate_name;
    let candidates: Vec<u32> = candidates
        .into_iter()
        .filter(|&to| {
            let to_crate = &model.files[model.fns[to as usize].file as usize].crate_name;
            model.crate_edge_allowed(from_crate, to_crate)
        })
        .collect();
    if candidates.is_empty() {
        // External (std / shim / closure var). Consult the deny table.
        if config::DENIED_EXTERNAL_CALLS.contains(&name) {
            g.sites.push(Site {
                fn_id: owner,
                file: file_id,
                line,
                kind: SiteKind::DeniedCall(name.to_string()),
                isolated: iso,
            });
        }
        return;
    }
    for to in candidates {
        if to == owner && model.fns[to as usize].name == name {
            // Self-recursion still counts as an edge (cycle-safe BFS),
            // keep it — it can matter for site attribution? It cannot
            // introduce new reachability, skip to keep the graph small.
            continue;
        }
        push_edge(g, owner, to, file_id, line, iso, methodish);
    }
}

fn push_edge(
    g: &mut CallGraph,
    from: u32,
    to: u32,
    file: u32,
    line: u32,
    iso: bool,
    methodish: bool,
) {
    g.adj[from as usize].push(g.edges.len() as u32);
    g.edges.push(Edge {
        from,
        to,
        file,
        line,
        isolated: iso,
        methodish,
    });
}

/// Whether the `::` before a call closes a `<T as Tr>` qualifier.
fn qualified_by_angle(toks: &[crate::lex::Spanned], i: usize) -> bool {
    i >= 2 && toks[i - 2].is_punct(">")
}

/// For a `Type::<args>::name(` turbofish call (where `toks[i]` is the
/// name and `toks[i - 2]` closes an angle group), recovers `Type`.
/// Returns `None` for `<T as Tr>::name(` qualified paths.
fn turbofish_base(toks: &[crate::lex::Spanned], i: usize) -> Option<&str> {
    let mut depth: i32 = 0;
    let mut j = i - 2; // the closing `>`
    loop {
        match &toks[j].tok {
            crate::lex::Tok::Punct(">") => depth += 1,
            crate::lex::Tok::Punct(">>") => depth += 2,
            crate::lex::Tok::Punct("<") => depth -= 1,
            crate::lex::Tok::Punct("<<") => depth -= 2,
            _ => {}
        }
        if depth <= 0 {
            break;
        }
        j = j.checked_sub(1)?;
    }
    // `j` is at the matching `<`; a turbofish has `Type ::` before it.
    if j >= 2 && toks[j - 1].is_punct("::") {
        toks[j - 2].ident()
    } else {
        None
    }
}

/// Resolves a `.name(` method call. Precision ladder:
/// 1. `self.name(` — the enclosing impl's type (and trait) methods.
/// 2. `recv.name(` where `recv` has a visible binding (`recv: Type`
///    ascription or `let recv = Type::…`) — narrow to that type's
///    methods; a non-workspace binding type means the call is external.
/// 3. Unknown receiver — if the name shadows a ubiquitous std method
///    (`find`, `get`, `len`, …) keep only *same-crate* candidates:
///    `self.cache.get(…)` plausibly hits the crate's own `Cache::get`,
///    but a cross-crate jump on a std-ambient name (`verify_routing`'s
///    iterator `.find(` landing on `cdag::UnionFind::find`) is a
///    naming coincidence. Distinctive names keep the conservative
///    all-methods resolution.
fn resolve_method(
    model: &Model,
    ix: &Index<'_>,
    toks: &[crate::lex::Spanned],
    i: usize,
    name: &str,
    owner: u32,
) -> Vec<u32> {
    let fallback = |ix: &Index<'_>| -> Vec<u32> {
        let mut all = ix.methods.get(name).cloned().unwrap_or_default();
        if config::AMBIENT_STD_METHODS.contains(&name) {
            let caller = &model.files[model.fns[owner as usize].file as usize].crate_name;
            all.retain(|&to| {
                &model.files[model.fns[to as usize].file as usize].crate_name == caller
            });
        }
        all
    };
    let recv = toks.get(i.wrapping_sub(2)).and_then(|t| t.ident());
    // Only a bare `ident . name (` receiver is typable; chained or
    // computed receivers fall back.
    let bare_recv = recv.is_some()
        && (i < 3 || {
            let before = &toks[i - 3];
            !(before.is_punct(".") || before.is_punct("::") || before.is_punct(")"))
        });
    match recv {
        Some("self") if bare_recv => {
            let f = &model.fns[owner as usize];
            let mut out = Vec::new();
            if let Some(ty) = &f.self_type {
                if let Some(c) = ix.typed.get(&(ty.as_str(), name)) {
                    out.extend_from_slice(c);
                }
            }
            if let Some(tr) = &f.trait_name {
                if let Some(c) = ix.typed.get(&(tr.as_str(), name)) {
                    out.extend_from_slice(c);
                }
            }
            if out.is_empty() {
                fallback(ix)
            } else {
                out
            }
        }
        Some(r) if bare_recv => match binding_type(model, toks, owner, r) {
            // A workspace type runs its own method; otherwise, like a
            // non-workspace or generic `V: Trait` binding, a trait's
            // default body or a std method.
            Some(ty) => ix
                .typed
                .get(&(ty.as_str(), name))
                .or_else(|| ix.defaults.get(name))
                .cloned()
                .unwrap_or_default(),
            None => fallback(ix),
        },
        _ => fallback(ix),
    }
}

/// Looks for a binding of `recv` inside the owning function's span:
/// a `recv: Type` ascription (param or let) or `let recv = Type::…`
/// constructor call. Returns the type name if one is found.
fn binding_type(
    model: &Model,
    toks: &[crate::lex::Spanned],
    owner: u32,
    recv: &str,
) -> Option<String> {
    let f = &model.fns[owner as usize];
    let (lo, hi) = (f.span.0 as usize, (f.span.1 as usize).min(toks.len()));
    let mut j = lo;
    while j + 2 < hi {
        if toks[j].ident() == Some(recv) && toks[j + 1].is_punct(":") {
            // `recv : [&] [mut] ['a] Type` — skip reference noise.
            let mut k = j + 2;
            while k < hi
                && (toks[k].is_punct("&")
                    || toks[k].ident() == Some("mut")
                    || matches!(toks[k].tok, crate::lex::Tok::Lifetime))
            {
                k += 1;
            }
            if let Some(ty) = toks.get(k).and_then(|t| t.ident()) {
                if plausible_type_name(ty) {
                    return Some(ty.to_string());
                }
            }
        }
        if toks[j].ident() == Some("let") {
            // `let [mut] recv = Type :: …`
            let mut k = j + 1;
            if toks.get(k).and_then(|t| t.ident()) == Some("mut") {
                k += 1;
            }
            if toks.get(k).and_then(|t| t.ident()) == Some(recv)
                && toks.get(k + 1).is_some_and(|t| t.is_punct("="))
            {
                if let Some(ty) = toks.get(k + 2).and_then(|t| t.ident()) {
                    if toks.get(k + 3).is_some_and(|t| t.is_punct("::")) && plausible_type_name(ty)
                    {
                        return Some(ty.to_string());
                    }
                }
            }
        }
        j += 1;
    }
    None
}

/// Filters out value-looking idents picked up by the `name: value`
/// struct-literal ambiguity: a type name starts uppercase or is a
/// primitive. A smart pointer is no type for method resolution: its
/// methods are mostly its pointee's.
fn plausible_type_name(s: &str) -> bool {
    (s.chars().next().is_some_and(|c| c.is_ascii_uppercase()) && !matches!(s, "Arc" | "Rc" | "Box"))
        || matches!(
            s,
            "usize"
                | "u8"
                | "u16"
                | "u32"
                | "u64"
                | "u128"
                | "isize"
                | "i8"
                | "i16"
                | "i32"
                | "i64"
                | "i128"
                | "f32"
                | "f64"
                | "bool"
                | "char"
                | "str"
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph_of(src: &str) -> (Model, CallGraph) {
        let mut m = Model::default();
        m.add_file("demo", "crates/demo/src/lib.rs", src);
        let g = build(&m);
        (m, g)
    }

    fn edge_names(m: &Model, g: &CallGraph) -> Vec<(String, String)> {
        g.edges
            .iter()
            .map(|e| {
                (
                    m.fns[e.from as usize].name.clone(),
                    m.fns[e.to as usize].name.clone(),
                )
            })
            .collect()
    }

    #[test]
    fn free_call_edges() {
        let (m, g) = graph_of("fn a() { b(); }\nfn b() {}");
        assert_eq!(edge_names(&m, &g), vec![("a".into(), "b".into())]);
    }

    #[test]
    fn method_calls_resolve_conservatively() {
        // Receiver of unknown type, distinctive method name: every
        // same-named workspace method stays a candidate.
        let (m, g) = graph_of(
            r#"
            struct S; struct T;
            impl S { fn go(&self) {} }
            impl T { fn go(&self) {} }
            fn driver(s: S, xs: Vec<S>) { for x in xs { x.go(); } }
            "#,
        );
        let mut names = edge_names(&m, &g);
        names.sort();
        assert_eq!(
            names,
            vec![
                ("driver".into(), "go".into()),
                ("driver".into(), "go".into())
            ],
            "both `go` methods are candidates for an untyped receiver"
        );
    }

    #[test]
    fn typed_receiver_narrows_method_calls() {
        let (m, g) = graph_of(
            r#"
            struct S; struct T;
            impl S { fn go(&self) {} }
            impl T { fn go(&self) {} }
            fn by_param(s: S) { s.go(); }
            fn by_let() { let t = T::default(); t.go(); }
            "#,
        );
        let tys: Vec<_> = g
            .edges
            .iter()
            .map(|e| {
                (
                    m.fns[e.from as usize].name.clone(),
                    m.fns[e.to as usize].self_type.clone().unwrap(),
                )
            })
            .collect();
        assert!(tys.contains(&("by_param".into(), "S".into())), "{tys:?}");
        assert!(tys.contains(&("by_let".into(), "T".into())), "{tys:?}");
        assert_eq!(tys.len(), 2, "ascribed receivers resolve to one impl each");
    }

    #[test]
    fn ambient_std_method_names_stay_in_crate_when_untyped() {
        // `.find(` on an unknown receiver is usually std
        // `Iterator::find`: cross-crate candidates are dropped, but a
        // same-crate `find` (e.g. `self.uf.find(…)`) is kept, and a
        // typed receiver still resolves precisely.
        let mut m = Model::default();
        m.add_file(
            "structures",
            "crates/structures/src/lib.rs",
            r#"
            pub struct UnionFind;
            impl UnionFind { pub fn find(&self, x: usize) -> usize { x } }
            struct Local;
            impl Local { fn find(&self) {} }
            struct Holder { inner: Local }
            impl Holder { fn scan(&self, xs: Vec<u32>) { self.inner.find(); let _ = xs.iter().find(|v| v.is_positive()); } }
            "#,
        );
        m.add_file(
            "consumer",
            "crates/consumer/src/lib.rs",
            r#"
            fn chain(xs: Vec<u32>) { let _ = xs.iter().find(|v| v.is_positive()); }
            fn typed(u: UnionFind) { u.find(3); }
            "#,
        );
        m.add_crate_deps("consumer", vec!["structures".into()]);
        let g = build(&m);
        let names: Vec<_> = g
            .edges
            .iter()
            .map(|e| {
                (
                    m.fns[e.from as usize].name.clone(),
                    m.files[m.fns[e.to as usize].file as usize]
                        .crate_name
                        .clone(),
                )
            })
            .collect();
        assert!(
            names.contains(&("typed".into(), "structures".into())),
            "typed receiver crosses crates: {names:?}"
        );
        assert!(
            names.contains(&("scan".into(), "structures".into())),
            "same-crate ambient-name call is kept: {names:?}"
        );
        assert_eq!(
            names.iter().filter(|(f, _)| f == "chain").count(),
            0,
            "cross-crate iterator `.find(` is external: {names:?}"
        );
    }

    #[test]
    fn typed_qualifier_narrows() {
        let (m, g) = graph_of(
            r#"
            struct S; struct T;
            impl S { fn make() {} }
            impl T { fn make() {} }
            fn driver() { S::make(); }
            "#,
        );
        assert_eq!(g.edges.len(), 1);
        assert_eq!(
            m.fns[g.edges[0].to as usize].self_type.as_deref(),
            Some("S")
        );
    }

    #[test]
    fn unwrap_and_macros_are_sites_not_edges() {
        let (_m, g) = graph_of(
            r#"
            fn f(x: Option<u32>) -> u32 {
                if x.is_none() { panic!("gone"); }
                x.unwrap()
            }
            "#,
        );
        assert!(g.edges.is_empty());
        let kinds: Vec<_> = g.sites.iter().map(|s| s.kind.clone()).collect();
        assert!(kinds.contains(&SiteKind::PanicMacro("panic".into())));
        assert!(kinds.contains(&SiteKind::Unwrap));
    }

    #[test]
    fn indexing_and_arithmetic_sites() {
        let (_m, g) = graph_of("fn f(v: &[u32], i: usize) -> u32 { v[i] + 1 }");
        let kinds: Vec<_> = g.sites.iter().map(|s| s.kind.clone()).collect();
        assert!(kinds.contains(&SiteKind::Index));
        assert!(kinds.contains(&SiteKind::Arith("+")));
    }

    #[test]
    fn trait_bounds_in_signatures_are_not_arithmetic() {
        let (_m, g) = graph_of("fn f<T: Clone + Send>(x: T) -> T where T: Sync + Sized { x }");
        assert!(
            g.sites
                .iter()
                .all(|s| !matches!(s.kind, SiteKind::Arith(_))),
            "bounds `+` must not be flagged: {:?}",
            g.sites
        );
    }

    #[test]
    fn catch_unwind_isolates_sites_and_edges() {
        let (m, g) = graph_of(
            r#"
            fn risky() { panic!("boom"); }
            fn shielded() {
                let _ = catch_unwind(AssertUnwindSafe(|| risky()));
            }
            fn exposed() { risky(); }
            "#,
        );
        let shielded_edge = g
            .edges
            .iter()
            .find(|e| m.fns[e.from as usize].name == "shielded")
            .unwrap();
        assert!(shielded_edge.isolated);
        let exposed_edge = g
            .edges
            .iter()
            .find(|e| m.fns[e.from as usize].name == "exposed")
            .unwrap();
        assert!(!exposed_edge.isolated);
    }

    #[test]
    fn test_code_produces_nothing() {
        let (_m, g) = graph_of(
            r#"
            #[cfg(test)]
            mod tests {
                #[test]
                fn case() { assert_eq!(1, compute().unwrap()); }
            }
            "#,
        );
        assert!(g.sites.is_empty());
        assert!(g.edges.is_empty());
    }

    #[test]
    fn denied_external_call_is_a_site() {
        let (_m, g) = graph_of("fn f(v: &[u8]) { let (_a, _b) = v.split_at(4); }");
        assert!(g
            .sites
            .iter()
            .any(|s| matches!(&s.kind, SiteKind::DeniedCall(n) if n == "split_at")));
    }
}
