//! From tokens to a workspace model: files, `fn` items, scopes, and
//! justification comments.
//!
//! The parser tracks exactly the structure the passes need:
//!
//! - every `fn` item (free functions, inherent and trait methods, nested
//!   fns), with its enclosing impl type / trait, module path, `#[test]` /
//!   `#[cfg(test)]` status, and `#[cfg(feature = "…")]` gates — own *and
//!   inherited* from enclosing `mod`/`impl` scopes;
//! - per-token ownership: which innermost `fn` a token belongs to
//!   (closures therefore attribute to their enclosing fn, as required);
//! - per-token test-scope flags, so code inside `#[cfg(test)] mod tests`
//!   is excluded from emission/panic accounting;
//! - `// audit: safe — reason` justification comments, with their line
//!   and reason text;
//! - the crate root's `#![forbid(unsafe_code)]` inner attribute.
//!
//! It is a *recognizer*, not a validator: token sequences it does not
//! understand are skipped, and brace tracking keeps the scope stack
//! consistent on any input that brace-balances (which compiling Rust
//! does; the planted fixture does too).

use crate::lex::{lex, Spanned, Tok};

/// Token index marker for "owned by no fn" (module-level tokens).
pub const NO_OWNER: u32 = u32::MAX;

/// One `fn` item anywhere in the workspace.
#[derive(Clone, Debug)]
pub struct FnItem {
    /// Global id — index into [`Model::fns`].
    pub id: u32,
    /// Index into [`Model::files`].
    pub file: u32,
    /// Bare name (`verify_json`, `new`).
    pub name: String,
    /// Display name: `crate::module::Type::name`.
    pub qualname: String,
    /// The `impl` type's last path segment, for methods.
    pub self_type: Option<String>,
    /// The trait being implemented (or declared, for default methods).
    pub trait_name: Option<String>,
    /// `#[test]`, inside `#[cfg(test)]`, or in a `tests/` file.
    pub is_test: bool,
    /// Feature gates in effect (own + inherited), e.g. `["mutate"]`.
    pub features: Vec<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token range of the whole item (signature start .. body end).
    pub span: (u32, u32),
    /// Whether the item has a body (trait method *declarations* do not).
    pub has_body: bool,
}

/// A `// audit: safe — reason` comment.
#[derive(Clone, Debug)]
pub struct Justification {
    /// Index into [`Model::files`].
    pub file: u32,
    /// 1-based line the comment sits on.
    pub line: u32,
    /// The reason text after the dash.
    pub reason: String,
}

/// One parsed source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Owning crate's package name (e.g. `mmio-cert`).
    pub crate_name: String,
    /// Workspace-relative path (e.g. `crates/cert/src/verify.rs`).
    pub rel_path: String,
    /// Whether the whole file is test code (`tests/`, `benches/`).
    pub is_test_file: bool,
    /// Whether this file is a crate root (`lib.rs` / `main.rs`).
    pub is_crate_root: bool,
    /// Crate roots: whether `#![forbid(unsafe_code)]` is present.
    pub has_forbid_unsafe: bool,
    /// The token stream.
    pub toks: Vec<Spanned>,
    /// Per-token owning fn id ([`NO_OWNER`] at module level).
    pub owner: Vec<u32>,
    /// Per-token test-scope flag.
    pub in_test: Vec<bool>,
}

/// The whole parsed workspace.
#[derive(Debug, Default)]
pub struct Model {
    /// Every parsed file.
    pub files: Vec<SourceFile>,
    /// Every fn item, globally indexed.
    pub fns: Vec<FnItem>,
    /// Every justification comment.
    pub justifications: Vec<Justification>,
    /// Declared crate dependencies (from each `Cargo.toml`); the call
    /// graph only admits cross-crate edges along these. Crates with no
    /// entry admit no cross-crate edges.
    pub deps: std::collections::HashMap<String, Vec<String>>,
}

impl Model {
    /// Records crate `name`'s declared dependencies.
    pub fn add_crate_deps(&mut self, name: &str, deps: Vec<String>) {
        self.deps.insert(name.to_string(), deps);
    }

    /// Whether a call edge from crate `from` into crate `to` is
    /// structurally possible (same crate, or a declared dependency).
    pub fn crate_edge_allowed(&self, from: &str, to: &str) -> bool {
        from == to
            || self
                .deps
                .get(from)
                .is_some_and(|d| d.iter().any(|x| x == to))
    }
    /// Parses one file and appends it (and its items) to the model.
    pub fn add_file(&mut self, crate_name: &str, rel_path: &str, src: &str) {
        let file_id = self.files.len() as u32;
        let is_test_file = rel_path.contains("/tests/") || rel_path.contains("/benches/");
        let file_name = rel_path.rsplit('/').next().unwrap_or(rel_path);
        let is_crate_root = file_name == "lib.rs" || file_name == "main.rs";
        let toks = lex(src);
        let mut p = Parser {
            model: self,
            file_id,
            is_test_file,
            toks: &toks,
            owner: vec![NO_OWNER; toks.len()],
            in_test: vec![is_test_file; toks.len()],
        };
        let has_forbid_unsafe = p.run(crate_name, rel_path);
        let (owner, in_test) = (p.owner, p.in_test);
        self.files.push(SourceFile {
            crate_name: crate_name.to_string(),
            rel_path: rel_path.to_string(),
            is_test_file,
            is_crate_root,
            has_forbid_unsafe,
            toks,
            owner,
            in_test,
        });
    }

    /// The fns defined in file `f`, in source order.
    pub fn fns_in_file(&self, f: u32) -> impl Iterator<Item = &FnItem> {
        self.fns.iter().filter(move |i| i.file == f)
    }
}

/// Attributes gathered in front of an item.
#[derive(Default, Clone)]
struct Pending {
    is_test: bool,
    features: Vec<String>,
}

#[derive(Clone)]
enum ScopeKind {
    Block,
    Mod(String),
    Impl {
        ty: Option<String>,
        tr: Option<String>,
    },
    Trait(String),
    Fn(u32),
}

struct Scope {
    kind: ScopeKind,
    is_test: bool,
    features: Vec<String>,
}

struct Parser<'a> {
    model: &'a mut Model,
    file_id: u32,
    is_test_file: bool,
    toks: &'a [Spanned],
    owner: Vec<u32>,
    in_test: Vec<bool>,
}

impl Parser<'_> {
    /// Walks the token stream; returns whether `#![forbid(unsafe_code)]`
    /// was seen.
    fn run(&mut self, crate_name: &str, rel_path: &str) -> bool {
        let toks = self.toks;
        let mut scopes: Vec<Scope> = vec![Scope {
            kind: ScopeKind::Block,
            is_test: self.is_test_file,
            features: Vec::new(),
        }];
        let mut pending = Pending::default();
        let mut next_scope: Option<ScopeKind> = None;
        let mut has_forbid_unsafe = false;
        let mut i = 0usize;
        while i < toks.len() {
            let in_test_here = scopes.last().is_some_and(|s| s.is_test);
            if let Some(fn_scope) = scopes.iter().rev().find_map(|s| match s.kind {
                ScopeKind::Fn(id) => Some(id),
                _ => None,
            }) {
                self.owner[i] = fn_scope;
            }
            self.in_test[i] = in_test_here || pending.is_test;
            match &toks[i].tok {
                Tok::LineComment(text) => {
                    if let Some(reason) = parse_justification(text) {
                        self.model.justifications.push(Justification {
                            file: self.file_id,
                            line: toks[i].line,
                            reason,
                        });
                    }
                    i += 1;
                }
                Tok::Punct("#") => {
                    let inner = toks.get(i + 1).is_some_and(|t| t.is_punct("!"));
                    let open = i + if inner { 2 } else { 1 };
                    if toks.get(open).is_some_and(|t| t.is_punct("[")) {
                        let close = match_bracket(toks, open);
                        let attr = &toks[open + 1..close.min(toks.len())];
                        if inner {
                            if attr_contains(attr, "forbid") && attr_contains(attr, "unsafe_code") {
                                has_forbid_unsafe = true;
                            }
                            // `#![cfg(test)]` makes the enclosing file or
                            // module test code, as an outer one on its
                            // `mod` item would.
                            let mut gate = Pending::default();
                            absorb_attr(attr, &mut gate);
                            if gate.is_test && attr_contains(attr, "cfg") {
                                if let Some(scope) = scopes.last_mut() {
                                    scope.is_test = true;
                                }
                            }
                        } else {
                            absorb_attr(attr, &mut pending);
                        }
                        // Attribute tokens keep the owner/test marks they
                        // were assigned; skip past the group.
                        for j in i..close.min(toks.len()) {
                            self.in_test[j] = in_test_here;
                        }
                        i = close + 1;
                    } else {
                        i += 1;
                    }
                }
                Tok::Ident(kw) if kw == "mod" => {
                    if let Some(name) = toks.get(i + 1).and_then(|t| t.ident()) {
                        if toks.get(i + 2).is_some_and(|t| t.is_punct("{")) {
                            next_scope = Some(ScopeKind::Mod(name.to_string()));
                            // The scope push at `{` consumes `pending`.
                            i += 2;
                            continue;
                        }
                    }
                    pending = Pending::default();
                    i += 1;
                }
                Tok::Ident(kw) if kw == "impl" => {
                    let (ty, tr, brace) = parse_impl_header(toks, i + 1);
                    next_scope = Some(ScopeKind::Impl { ty, tr });
                    i = brace;
                }
                Tok::Ident(kw) if kw == "trait" => {
                    if let Some(name) = toks.get(i + 1).and_then(|t| t.ident()) {
                        let brace = find_scope_open(toks, i + 2);
                        if brace < toks.len() && toks[brace].is_punct("{") {
                            next_scope = Some(ScopeKind::Trait(name.to_string()));
                            i = brace;
                            continue;
                        }
                    }
                    pending = Pending::default();
                    i += 1;
                }
                Tok::Ident(kw) if kw == "fn" => {
                    let name = match toks.get(i + 1).and_then(|t| t.ident()) {
                        Some(n) => n.to_string(),
                        None => {
                            i += 1;
                            continue;
                        }
                    };
                    let sig_end = find_scope_open(toks, i + 2);
                    let has_body = sig_end < toks.len() && toks[sig_end].is_punct("{");
                    let id = self.model.fns.len() as u32;
                    let (self_type, trait_name) = impl_context(&scopes);
                    let is_test =
                        pending.is_test || scopes.iter().any(|s| s.is_test) || self.is_test_file;
                    let mut features: Vec<String> = scopes
                        .iter()
                        .flat_map(|s| s.features.iter().cloned())
                        .collect();
                    features.extend(pending.features.iter().cloned());
                    features.sort();
                    features.dedup();
                    let qualname = qualify(crate_name, rel_path, &scopes, &self_type, &name);
                    self.model.fns.push(FnItem {
                        id,
                        file: self.file_id,
                        name,
                        qualname,
                        self_type,
                        trait_name,
                        is_test,
                        features,
                        line: toks[i].line,
                        span: (i as u32, sig_end as u32), // end fixed at pop
                        has_body,
                    });
                    // Signature tokens belong to this fn.
                    for j in i..sig_end.min(toks.len()) {
                        self.owner[j] = id;
                        self.in_test[j] = is_test;
                    }
                    pending = Pending::default();
                    if has_body {
                        next_scope = Some(ScopeKind::Fn(id));
                        i = sig_end;
                    } else {
                        i = sig_end + 1;
                    }
                }
                Tok::Punct("{") => {
                    let parent = scopes.last().expect("root scope always present");
                    let taken = next_scope.take();
                    let is_fn = matches!(taken, Some(ScopeKind::Fn(_)));
                    let scope = Scope {
                        kind: taken.unwrap_or(ScopeKind::Block),
                        is_test: parent.is_test || pending.is_test,
                        features: {
                            let mut f = parent.features.clone();
                            f.extend(pending.features.iter().cloned());
                            f
                        },
                    };
                    if let ScopeKind::Fn(id) = scope.kind {
                        let it = &self.model.fns[id as usize];
                        self.owner[i] = id;
                        self.in_test[i] = it.is_test;
                    }
                    if is_fn || matches!(scope.kind, ScopeKind::Mod(_)) {
                        pending = Pending::default();
                    }
                    scopes.push(scope);
                    i += 1;
                }
                Tok::Punct("}") => {
                    if scopes.len() > 1 {
                        let popped = scopes.pop().expect("len checked");
                        if let ScopeKind::Fn(id) = popped.kind {
                            self.model.fns[id as usize].span.1 = (i + 1) as u32;
                            self.owner[i] = id;
                            self.in_test[i] = self.model.fns[id as usize].is_test;
                        }
                    }
                    i += 1;
                }
                Tok::Punct(";") => {
                    pending = Pending::default();
                    i += 1;
                }
                _ => i += 1,
            }
        }
        // Fn ownership above marks tokens as the loop passes them with the
        // scope stack current — nested fns override naturally because the
        // innermost Fn scope wins at each token.
        has_forbid_unsafe
    }
}

/// `// audit: safe — reason` (also accepts `-` / `--` as the dash).
/// Returns the reason, or `None` if this is not a justification comment.
pub fn parse_justification(comment: &str) -> Option<String> {
    let body = comment.trim_start_matches('/').trim();
    let rest = body.strip_prefix("audit:")?.trim();
    let rest = rest.strip_prefix("safe")?.trim();
    let reason = rest
        .strip_prefix('\u{2014}') // em dash
        .or_else(|| rest.strip_prefix("--"))
        .or_else(|| rest.strip_prefix('-'))
        .map(str::trim)
        .unwrap_or("");
    Some(reason.to_string())
}

/// Finds the matching `]` for the `[` at `open`; returns its index (or
/// the stream end on malformed input).
fn match_bracket(toks: &[Spanned], open: usize) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < toks.len() {
        if toks[i].is_punct("[") {
            depth += 1;
        } else if toks[i].is_punct("]") {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
        i += 1;
    }
    toks.len()
}

/// Whether the attribute token group mentions identifier `name`.
fn attr_contains(attr: &[Spanned], name: &str) -> bool {
    attr.iter().any(|t| t.is_ident(name))
}

/// Extracts `test` / `cfg(test)` / `cfg(feature = "x")` facts from one
/// outer-attribute token group into `pending`. `cfg(any(test, …))` and
/// `cfg(all(test, …))` count as test — conservative in the safe
/// direction (test code is *excluded* from findings, and a
/// convention-bound `cfg` never gates production-only code on `test`).
fn absorb_attr(attr: &[Spanned], pending: &mut Pending) {
    if attr_contains(attr, "not") {
        // `#[cfg(not(test))]` / `#[cfg(not(feature = "x"))]` mark the
        // *fallback* — active precisely when the flag is off. Recording
        // the flag here would invert the gate, so negated cfgs
        // contribute nothing.
        return;
    }
    if attr_contains(attr, "test") {
        pending.is_test = true;
    }
    if attr_contains(attr, "cfg") || attr_contains(attr, "cfg_attr") {
        let mut i = 0usize;
        while i < attr.len() {
            if attr[i].is_ident("feature") && attr.get(i + 1).is_some_and(|t| t.is_punct("=")) {
                if let Some(name) = attr.get(i + 2).and_then(|t| t.str_contents()) {
                    pending.features.push(name.to_string());
                }
            }
            i += 1;
        }
    }
}

/// Scans an `impl` header starting after the `impl` keyword. Returns
/// `(type, trait, index-of-open-brace)`.
fn parse_impl_header(toks: &[Spanned], mut i: usize) -> (Option<String>, Option<String>, usize) {
    // Skip leading generics `<...>`.
    if toks.get(i).is_some_and(|t| t.is_punct("<")) {
        i = skip_angles(toks, i);
    }
    let mut angle = 0i32;
    let mut last_ident: Option<String> = None;
    let mut before_for: Option<String> = None;
    let mut saw_for = false;
    while i < toks.len() {
        let t = &toks[i];
        match &t.tok {
            Tok::Punct("{") | Tok::Punct(";") if angle == 0 => break,
            Tok::Punct("<") => angle += 1,
            Tok::Punct(">") => angle -= 1,
            Tok::Punct("<<") => angle += 2,
            Tok::Punct(">>") => angle -= 2,
            Tok::Ident(s) if angle == 0 => {
                if s == "for" {
                    saw_for = true;
                    before_for = last_ident.take();
                } else if s != "dyn" && s != "mut" && s != "const" && s != "where" {
                    last_ident = Some(s.clone());
                }
            }
            _ => {}
        }
        i += 1;
    }
    if saw_for {
        (last_ident, before_for, i)
    } else {
        (last_ident, None, i)
    }
}

/// Skips a balanced `<...>` group starting at `i` (which holds `<`).
fn skip_angles(toks: &[Spanned], mut i: usize) -> usize {
    let mut depth = 0i32;
    while i < toks.len() {
        match &toks[i].tok {
            Tok::Punct("<") => depth += 1,
            Tok::Punct(">") => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            Tok::Punct("<<") => depth += 2,
            Tok::Punct(">>") => {
                depth -= 2;
                if depth <= 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    i
}

/// Finds the start of an item's body `{` (or terminating `;`) from the
/// start of its signature — the first `{`/`;` outside parens, brackets,
/// and angle brackets.
fn find_scope_open(toks: &[Spanned], mut i: usize) -> usize {
    let mut paren = 0i32;
    let mut angle = 0i32;
    while i < toks.len() {
        match &toks[i].tok {
            Tok::Punct("(") | Tok::Punct("[") => paren += 1,
            Tok::Punct(")") | Tok::Punct("]") => paren -= 1,
            Tok::Punct("<") if paren == 0 => angle += 1,
            Tok::Punct(">") if paren == 0 => angle = (angle - 1).max(0),
            Tok::Punct("<<") if paren == 0 => angle += 2,
            Tok::Punct(">>") if paren == 0 => angle = (angle - 2).max(0),
            Tok::Punct("->") => {
                // Return types may contain `(`-free paths with `<`;
                // nothing to do — angle tracking covers it.
            }
            Tok::Punct("{") | Tok::Punct(";") if paren == 0 && angle == 0 => return i,
            _ => {}
        }
        i += 1;
    }
    toks.len()
}

/// The enclosing impl/trait context, innermost first.
fn impl_context(scopes: &[Scope]) -> (Option<String>, Option<String>) {
    for s in scopes.iter().rev() {
        match &s.kind {
            ScopeKind::Impl { ty, tr } => return (ty.clone(), tr.clone()),
            ScopeKind::Trait(name) => return (None, Some(name.clone())),
            ScopeKind::Fn(_) | ScopeKind::Block => continue,
            ScopeKind::Mod(_) => return (None, None),
        }
    }
    (None, None)
}

/// Builds the display qualname `crate::mods::Type::name`.
fn qualify(
    crate_name: &str,
    _rel_path: &str,
    scopes: &[Scope],
    self_type: &Option<String>,
    name: &str,
) -> String {
    let mut parts = vec![crate_name.to_string()];
    for s in scopes {
        if let ScopeKind::Mod(m) = &s.kind {
            parts.push(m.clone());
        }
    }
    if let Some(ty) = self_type {
        parts.push(ty.clone());
    }
    parts.push(name.to_string());
    parts.join("::")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model_of(src: &str) -> Model {
        let mut m = Model::default();
        m.add_file("demo", "crates/demo/src/lib.rs", src);
        m
    }

    #[test]
    fn free_fns_methods_and_trait_impls() {
        let m = model_of(
            r#"
            pub fn free() {}
            struct S;
            impl S { fn method(&self) {} }
            trait T { fn defaulted(&self) { helper(); } fn decl(&self); }
            impl T for S { fn decl(&self) {} }
            "#,
        );
        let names: Vec<_> = m.fns.iter().map(|f| f.qualname.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "demo::free",
                "demo::S::method",
                "demo::defaulted",
                "demo::decl",
                "demo::S::decl"
            ]
        );
        assert_eq!(m.fns[1].self_type.as_deref(), Some("S"));
        assert_eq!(m.fns[2].trait_name.as_deref(), Some("T"));
        assert!(!m.fns[3].has_body);
        let last = &m.fns[4];
        assert_eq!(last.self_type.as_deref(), Some("S"));
        assert_eq!(last.trait_name.as_deref(), Some("T"));
    }

    #[test]
    fn generic_impl_headers_resolve_type_and_trait() {
        let m = model_of(
            r#"
            impl<'a, T: Clone> Iterator for Wrapper<'a, T> {
                fn next(&mut self) -> Option<T> { None }
            }
            "#,
        );
        assert_eq!(m.fns[0].self_type.as_deref(), Some("Wrapper"));
        assert_eq!(m.fns[0].trait_name.as_deref(), Some("Iterator"));
    }

    #[test]
    fn cfg_test_and_test_attr_are_inherited() {
        let m = model_of(
            r#"
            fn prod() {}
            #[cfg(test)]
            mod tests {
                fn helper() {}
                #[test]
                fn case() {}
            }
            "#,
        );
        assert!(!m.fns[0].is_test);
        assert!(m.fns[1].is_test, "helper inherits mod cfg(test)");
        assert!(m.fns[2].is_test);
    }

    #[test]
    fn inner_cfg_test_marks_the_whole_file() {
        let m = model_of(
            r#"
            //! An oracle compiled into test builds only.
            #![cfg(test)]
            pub fn oracle() {}
            "#,
        );
        assert!(m.fns[0].is_test);
        let m = model_of("#![cfg(not(test))]\npub fn fallback() {}\n");
        assert!(!m.fns[0].is_test);
    }

    #[test]
    fn feature_gates_inherit_from_mods_and_impls() {
        let m = model_of(
            r#"
            #[cfg(feature = "mutate")]
            mod mutate {
                pub fn arm() {}
            }
            #[cfg(feature = "trace")]
            pub fn traced() {}
            pub fn plain() {}
            "#,
        );
        assert_eq!(m.fns[0].features, vec!["mutate".to_string()]);
        assert_eq!(m.fns[1].features, vec!["trace".to_string()]);
        assert!(m.fns[2].features.is_empty());
    }

    #[test]
    fn nested_fns_and_closures_attribute_to_the_innermost_fn() {
        let m = model_of(
            r#"
            fn outer() {
                let c = |x: u32| inner_call(x);
                fn nested() { deep_call(); }
            }
            "#,
        );
        assert_eq!(m.fns.len(), 2);
        let f = &m.files[0];
        // Find inner_call's and deep_call's owners.
        let find = |name: &str| {
            f.toks
                .iter()
                .position(|t| t.is_ident(name))
                .map(|i| f.owner[i])
                .unwrap()
        };
        assert_eq!(find("inner_call"), m.fns[0].id, "closure → enclosing fn");
        assert_eq!(find("deep_call"), m.fns[1].id, "nested fn owns its body");
    }

    #[test]
    fn forbid_unsafe_detection() {
        let mut m = Model::default();
        m.add_file(
            "demo",
            "crates/demo/src/lib.rs",
            "#![forbid(unsafe_code)]\npub fn f() {}",
        );
        m.add_file("demo2", "crates/demo2/src/lib.rs", "pub fn g() {}");
        assert!(m.files[0].has_forbid_unsafe);
        assert!(!m.files[1].has_forbid_unsafe);
    }

    #[test]
    fn justification_comments_parse() {
        assert_eq!(
            parse_justification("// audit: safe \u{2014} len checked above"),
            Some("len checked above".to_string())
        );
        assert_eq!(
            parse_justification("// audit: safe - bounded by a^k"),
            Some("bounded by a^k".to_string())
        );
        assert_eq!(parse_justification("// audit: safe"), Some(String::new()));
        assert_eq!(parse_justification("// plain comment"), None);
        let m = model_of("fn f() {\n    x.unwrap(); // audit: safe — probe\n}");
        assert_eq!(m.justifications.len(), 1);
        assert_eq!(m.justifications[0].line, 2);
        assert_eq!(m.justifications[0].reason, "probe");
    }

    #[test]
    fn test_files_mark_everything_test() {
        let mut m = Model::default();
        m.add_file("demo", "crates/demo/tests/golden.rs", "fn helper() {}");
        assert!(m.fns[0].is_test);
    }
}
