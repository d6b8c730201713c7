//! Offline stand-in for `serde_derive`: `#[derive(Serialize)]` and
//! `#[derive(Deserialize)]` against the shimmed `serde` value-tree traits.
//!
//! Implemented directly on `proc_macro` (no `syn`/`quote`, which are not
//! available offline). Supports exactly the shape this workspace derives:
//! **non-generic structs with named fields**. Anything else produces a
//! `compile_error!` pointing here.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Parsed skeleton of a `struct` item: its name and named fields.
struct StructShape {
    name: String,
    fields: Vec<String>,
}

fn parse_struct(input: TokenStream, trait_name: &str) -> Result<StructShape, String> {
    let mut iter = input.into_iter().peekable();
    // Skip outer attributes (`#[...]`) and visibility (`pub`, `pub(...)`).
    let name = loop {
        match iter.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                iter.next(); // the [...] group
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                if let Some(TokenTree::Group(g)) = iter.peek() {
                    if g.delimiter() == Delimiter::Parenthesis {
                        iter.next();
                    }
                }
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "struct" => match iter.next() {
                Some(TokenTree::Ident(n)) => break n.to_string(),
                _ => return Err(format!("derive({trait_name}): malformed struct")),
            },
            Some(TokenTree::Ident(id)) if id.to_string() == "enum" || id.to_string() == "union" => {
                return Err(format!(
                    "derive({trait_name}) shim supports only structs with named fields"
                ));
            }
            Some(_) => continue,
            None => return Err(format!("derive({trait_name}): no struct found")),
        }
    };
    // Next token must be the brace group; generics are unsupported.
    let body = match iter.next() {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g.stream(),
        Some(TokenTree::Punct(p)) if p.as_char() == '<' => {
            return Err(format!(
                "derive({trait_name}) shim does not support generic structs"
            ));
        }
        _ => {
            return Err(format!(
                "derive({trait_name}) shim supports only structs with named fields"
            ))
        }
    };

    let mut fields = Vec::new();
    let mut depth = 0usize;
    let mut chunk: Vec<TokenTree> = Vec::new();
    let flush = |chunk: &mut Vec<TokenTree>, fields: &mut Vec<String>| {
        // Within one field: skip attributes and visibility, first ident
        // before the `:` is the field name.
        let mut it = chunk.drain(..).peekable();
        while let Some(tt) = it.next() {
            match tt {
                TokenTree::Punct(p) if p.as_char() == '#' => {
                    it.next();
                }
                TokenTree::Ident(id) if id.to_string() == "pub" => {
                    if let Some(TokenTree::Group(g)) = it.peek() {
                        if g.delimiter() == Delimiter::Parenthesis {
                            it.next();
                        }
                    }
                }
                TokenTree::Ident(id) => {
                    fields.push(id.to_string());
                    break;
                }
                _ => {}
            }
        }
    };
    for tt in body {
        match &tt {
            TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' && depth > 0 => depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                flush(&mut chunk, &mut fields);
                chunk.clear();
                continue;
            }
            _ => {}
        }
        chunk.push(tt);
    }
    flush(&mut chunk, &mut fields);
    Ok(StructShape { name, fields })
}

fn compile_error(msg: &str) -> TokenStream {
    format!("compile_error!({msg:?});")
        .parse()
        .expect("valid error tokens")
}

/// Derives the shimmed `serde::Serialize`: value-tree rendering, and the
/// same object written straight to compact JSON.
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let shape = match parse_struct(input, "Serialize") {
        Ok(s) => s,
        Err(e) => return compile_error(&e),
    };
    // One field list gives both the tree and the text.
    let mut fields = String::new();
    for f in &shape.fields {
        fields.push_str(&format!("(\"{f}\", &self.{f} as &dyn ::serde::Serialize),"));
    }
    format!(
        "impl ::serde::Serialize for {name} {{\n\
             fn to_value(&self) -> ::serde::Value {{\n\
                 ::serde::ser::object(&[{fields}])\n\
             }}\n\
             fn write_json(&self, w: &mut dyn ::serde::ser::JsonWriter) {{\n\
                 ::serde::ser::write_fields(w, &[{fields}]);\n\
             }}\n\
         }}",
        name = shape.name,
    )
    .parse()
    .expect("generated Serialize impl parses")
}

/// Derives the shimmed `serde::Deserialize`: value-tree reconstruction,
/// and the same struct read straight from JSON tokens, field by field in
/// any order. The token read rejects a missing, unknown or repeated key.
#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let shape = match parse_struct(input, "Deserialize") {
        Ok(s) => s,
        Err(e) => return compile_error(&e),
    };
    let mut inits = String::new();
    let mut slots = String::new();
    let mut arms = String::new();
    let mut takes = String::new();
    for f in &shape.fields {
        inits.push_str(&format!(
            "{f}: ::serde::Deserialize::from_value(v.get(\"{f}\").ok_or_else(|| \
                 ::serde::de::Error::custom(\"missing field `{f}`\"))?)?,"
        ));
        // The slots, the key and the reader have distinct `__` names, so no
        // field name shadows them.
        slots.push_str(&format!(
            "let mut __field_{f} = ::std::option::Option::None;"
        ));
        arms.push_str(&format!(
            "\"{f}\" => ::serde::de::read_field(&mut __field_{f}, \"{f}\", __reader)?,"
        ));
        takes.push_str(&format!(
            "{f}: ::serde::de::required(__field_{f}, \"{f}\")?,"
        ));
    }
    format!(
        "impl ::serde::Deserialize for {name} {{\n\
             fn from_value(v: &::serde::Value) -> ::std::result::Result<Self, ::serde::de::Error> {{\n\
                 match v {{\n\
                     ::serde::Value::Object(_) => ::std::result::Result::Ok({name} {{ {inits} }}),\n\
                     other => ::std::result::Result::Err(::serde::de::Error::custom(\
                         ::std::format!(\"expected object, got {{}}\", other.kind()))),\n\
                 }}\n\
             }}\n\
             fn read_json(__reader: &mut dyn ::serde::de::JsonReader) -> ::std::result::Result<Self, ::serde::de::Error> {{\n\
                 {slots}\n\
                 __reader.begin_object()?;\n\
                 while let ::std::option::Option::Some(__key) = __reader.next_key()? {{\n\
                     match __key.as_str() {{\n\
                         {arms}\n\
                         __other => return ::std::result::Result::Err(::serde::de::unknown_field(__other)),\n\
                     }}\n\
                 }}\n\
                 ::std::result::Result::Ok({name} {{ {takes} }})\n\
             }}\n\
         }}",
        name = shape.name,
    )
    .parse()
    .expect("generated Deserialize impl parses")
}
