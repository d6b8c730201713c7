//! Test-only module, declared `#[cfg(test)] mod fixtures;` by lib.rs (which
//! sorts after this file): nothing here is dead code.

pub fn oracle() -> u32 {
    1
}
