#![forbid(unsafe_code)]
//! Fixture: panic sites reachable from the `verify_json` trust root
//! (MMIO-L001..L004), justification lints (L005/L006), and a wall-clock
//! read on the certificate-payload path (L021).

use std::time::SystemTime;

pub fn verify_json(input: &str) -> u32 {
    let parsed = parse_step(input);
    let digit = first_digit(input);
    let total = add_counts(parsed, digit);
    ensure_nonempty(input);
    total
}

fn parse_step(input: &str) -> u32 {
    input.len().try_into().unwrap()
}

fn first_digit(input: &str) -> u8 {
    let bytes = input.as_bytes();
    bytes[0]
}

fn add_counts(a: u32, b: u8) -> u32 {
    a + u32::from(b)
}

fn ensure_nonempty(input: &str) {
    if input.is_empty() {
        panic!("empty certificate");
    }
}

// audit: safe — there is no panic site anywhere near this comment
pub fn decoy() {}

pub fn unreached_helper(x: Option<u32>) -> u32 {
    // audit: safe — this helper fell off the trust path long ago
    x.unwrap()
}

pub fn emit_certificate() -> String {
    stamp()
}

fn stamp() -> String {
    let _t = SystemTime::now();
    String::new()
}

// Dead-code fixtures (MMIO-L024): one planted unreached fn, and four that
// must stay silent — reached only from the root-only example, a test
// module's file, a trait-impl method (crates/extra), and a kept fn with
// the helper only it calls.
#[cfg(test)]
mod fixtures;

pub fn forgotten() -> u32 {
    7
}

pub fn shown_in_example() {}

// audit: safe — kept as an extension point no caller uses yet
pub fn kept_on_purpose() {
    kept_helper();
}

fn kept_helper() {}
