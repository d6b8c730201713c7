//! Fixture: registry-lifecycle violations (MMIO-L010..L014) and a crate
//! root deliberately missing `#![forbid(unsafe_code)]` (L022).

pub mod codes;

pub fn emit_good() -> &'static str {
    codes::GOOD
}

pub fn emit_unregistered() -> &'static str {
    "MMIO-X009"
}

pub fn emit_undocumented() -> &'static str {
    codes::UNDOC
}

pub fn emit_untested() -> &'static str {
    codes::UNTESTED
}

pub fn emit_shared() -> &'static str {
    codes::SHARED
}

/// Renders every emitter: std calls `fmt` through the trait, so the impl
/// method is a root and what it calls is reached.
pub struct Emitters;

impl std::fmt::Display for Emitters {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let all = [
            emit_good(),
            emit_unregistered(),
            emit_undocumented(),
            emit_untested(),
            emit_shared(),
        ];
        write!(f, "{}", all.join(" "))
    }
}
