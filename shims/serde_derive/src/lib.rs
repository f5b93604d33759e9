//! Offline shim for `serde_derive`: `#[derive(Serialize)]` and
//! `#[derive(Deserialize)]` implemented with raw `proc_macro` token
//! parsing (no syn/quote, which are unavailable offline).
//!
//! Supported input shapes — exactly what this workspace uses:
//! * structs with named fields (no generics); the one field attribute is
//!   `#[serde(default)]`, which deserializes an absent field as
//!   `Default::default()`,
//! * enums whose variants are all unit variants.
//!
//! The generated impls target the shim `serde`'s value-tree model:
//! `Serialize::to_value(&self) -> serde::Value` and
//! `Deserialize::from_value(&serde::Value) -> Result<Self, serde::DeError>`.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// One named struct field.
struct Field {
    name: String,
    /// Marked `#[serde(default)]`.
    default: bool,
}

enum Shape {
    /// Named struct fields, in declaration order.
    Struct(Vec<Field>),
    /// Unit enum variants, in declaration order.
    Enum(Vec<String>),
}

struct Input {
    name: String,
    shape: Shape,
}

fn parse_input(input: TokenStream) -> Input {
    let mut iter = input.into_iter().peekable();
    let mut keyword = None;
    while let Some(tt) = iter.next() {
        match tt {
            // `#[attr]` / doc comments: skip the '#' and the bracket group.
            TokenTree::Punct(p) if p.as_char() == '#' => {
                iter.next();
            }
            TokenTree::Ident(id) => {
                let s = id.to_string();
                if s == "struct" || s == "enum" {
                    keyword = Some(s);
                    break;
                }
                // visibility / `crate` / etc.: skip (a following
                // `(crate)` group is skipped by the Group arm below).
            }
            _ => {}
        }
    }
    let keyword = keyword.expect("derive input must be a struct or enum");
    let name = match iter.next() {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("expected type name after `{keyword}`, got {other:?}"),
    };
    let body = loop {
        match iter.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => break g.stream(),
            Some(TokenTree::Punct(p)) if p.as_char() == '<' => {
                panic!("shim serde derive does not support generic type `{name}`")
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                panic!("shim serde derive does not support tuple struct `{name}`")
            }
            Some(_) => continue,
            None => panic!("`{name}` has no braced body (unit structs unsupported)"),
        }
    };
    let shape = if keyword == "struct" {
        Shape::Struct(parse_named_fields(body, &name))
    } else {
        Shape::Enum(parse_unit_variants(body, &name))
    };
    Input { name, shape }
}

/// Whether an attribute's bracket group reads `serde(default)`; any
/// other `serde(...)` attribute is unsupported.
fn is_serde_default(attr: &TokenTree, ty: &str) -> bool {
    let TokenTree::Group(g) = attr else {
        return false;
    };
    let mut inner = g.stream().into_iter();
    match inner.next() {
        Some(TokenTree::Ident(id)) if id.to_string() == "serde" => {}
        _ => return false,
    }
    match inner.next() {
        Some(TokenTree::Group(args)) if args.stream().to_string() == "default" => true,
        other => {
            panic!("shim serde derive supports only `#[serde(default)]` in `{ty}`, got {other:?}")
        }
    }
}

fn parse_named_fields(ts: TokenStream, ty: &str) -> Vec<Field> {
    let mut fields = Vec::new();
    let mut iter = ts.into_iter().peekable();
    loop {
        // Attributes / doc comments: only `#[serde(default)]` matters.
        let mut default = false;
        while matches!(iter.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
            iter.next();
            if let Some(attr) = iter.next() {
                default |= is_serde_default(&attr, ty);
            }
        }
        // Skip visibility (`pub`, `pub(crate)`, ...).
        if matches!(iter.peek(), Some(TokenTree::Ident(id)) if id.to_string() == "pub") {
            iter.next();
            if matches!(
                iter.peek(),
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis
            ) {
                iter.next();
            }
        }
        match iter.next() {
            Some(TokenTree::Ident(id)) => fields.push(Field {
                name: id.to_string(),
                default,
            }),
            None => break,
            other => panic!("unexpected token in fields of `{ty}`: {other:?}"),
        }
        match iter.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => panic!("expected `:` after field in `{ty}`, got {other:?}"),
        }
        // Skip the type: everything up to a comma at angle-bracket depth 0
        // (nested groups arrive as single trees, so only `<`/`>` nest).
        let mut depth = 0i64;
        loop {
            match iter.next() {
                Some(TokenTree::Punct(p)) if p.as_char() == '<' => depth += 1,
                Some(TokenTree::Punct(p)) if p.as_char() == '>' => depth -= 1,
                Some(TokenTree::Punct(p)) if p.as_char() == ',' && depth == 0 => break,
                Some(_) => {}
                None => break,
            }
        }
    }
    fields
}

fn parse_unit_variants(ts: TokenStream, ty: &str) -> Vec<String> {
    let mut variants = Vec::new();
    let mut iter = ts.into_iter().peekable();
    loop {
        while matches!(iter.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
            iter.next();
            iter.next();
        }
        match iter.next() {
            Some(TokenTree::Ident(id)) => variants.push(id.to_string()),
            None => break,
            other => panic!("unexpected token in variants of `{ty}`: {other:?}"),
        }
        // Only unit variants are supported; anything before the comma that
        // isn't a discriminant expression is an error.
        loop {
            match iter.next() {
                Some(TokenTree::Punct(p)) if p.as_char() == ',' => break,
                Some(TokenTree::Group(g)) if g.delimiter() != Delimiter::Bracket => {
                    panic!(
                        "shim serde derive supports only unit variants; \
                         `{ty}::{}` has data",
                        variants.last().unwrap()
                    )
                }
                Some(_) => {}
                None => break,
            }
        }
    }
    variants
}

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let Input { name, shape } = parse_input(input);
    let body = match &shape {
        Shape::Struct(fields) => {
            let pairs: String = fields
                .iter()
                .map(|Field { name: f, .. }| {
                    format!("(\"{f}\".to_string(), ::serde::Serialize::to_value(&self.{f})),")
                })
                .collect();
            format!("::serde::Value::Object(vec![{pairs}])")
        }
        Shape::Enum(variants) => {
            let arms: String = variants
                .iter()
                .map(|v| format!("{name}::{v} => \"{v}\","))
                .collect();
            format!("::serde::Value::Str(match self {{ {arms} }}.to_string())")
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{\n\
             fn to_value(&self) -> ::serde::Value {{ {body} }}\n\
         }}"
    )
    .parse()
    .expect("generated Serialize impl parses")
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let Input { name, shape } = parse_input(input);
    let body = match &shape {
        Shape::Struct(fields) => {
            let inits: String = fields
                .iter()
                .map(|Field { name: f, default }| {
                    let parse = format!(
                        "::serde::Deserialize::from_value(__f).map_err(|e| e.in_field(\"{f}\"))?"
                    );
                    if *default {
                        format!(
                            "{f}: match __v.get(\"{f}\") {{ \
                                 ::core::option::Option::Some(__f) => {parse}, \
                                 ::core::option::Option::None => ::core::default::Default::default(), \
                             }},"
                        )
                    } else {
                        format!("{f}: {{ let __f = __v.field(\"{f}\"); {parse} }},")
                    }
                })
                .collect();
            format!("::core::result::Result::Ok({name} {{ {inits} }})")
        }
        Shape::Enum(variants) => {
            let arms: String = variants
                .iter()
                .map(|v| format!("::core::option::Option::Some(\"{v}\") => ::core::result::Result::Ok({name}::{v}),"))
                .collect();
            format!(
                "match __v.as_str() {{ {arms} other => ::core::result::Result::Err(\
                     ::serde::DeError::custom(format!(\
                         \"unknown variant {{:?}} for {name}\", other))) }}"
            )
        }
    };
    format!(
        "impl ::serde::Deserialize for {name} {{\n\
             fn from_value(__v: &::serde::Value) -> ::core::result::Result<Self, ::serde::DeError> {{ {body} }}\n\
         }}"
    )
    .parse()
    .expect("generated Deserialize impl parses")
}
