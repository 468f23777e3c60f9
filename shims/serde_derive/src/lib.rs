//! Offline stand-in for `serde_derive`.
//!
//! Implements `#[derive(Serialize)]` / `#[derive(Deserialize)]` against the
//! shim `serde` crate's value-tree traits, with no dependency on `syn` or
//! `quote` (neither is available offline). The supported input grammar is
//! the subset this workspace uses: non-generic structs (named, tuple, unit)
//! and enums (unit, tuple, and struct variants), plus the field/variant
//! attributes `#[serde(skip)]`, `#[serde(default)]` (implied for an
//! `Option` field, as in real serde) and `#[serde(rename = "...")]`, and
//! the container attributes `#[serde(deny_unknown_fields)]` and
//! `#[serde(tag = "...")]` (internally tagged enums of unit and struct
//! variants; `Deserialize` only). The generated representation matches
//! real serde's externally-tagged default, so JSON artifacts keep their
//! shape. A nested error carries the field or index it happened under
//! (`edges[1].bound: ...`).

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[derive(Default, Clone)]
struct SerdeAttrs {
    skip: bool,
    default: bool,
    rename: Option<String>,
    deny_unknown_fields: bool,
    tag: Option<String>,
}

struct Field {
    name: String,
    attrs: SerdeAttrs,
}

enum Fields {
    Unit,
    Tuple(usize),
    Named(Vec<Field>),
}

struct Variant {
    name: String,
    attrs: SerdeAttrs,
    fields: Fields,
}

enum Kind {
    Struct(Fields),
    Enum(Vec<Variant>),
}

struct Input {
    name: String,
    attrs: SerdeAttrs,
    kind: Kind,
}

/// Derives `serde::Serialize`.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let parsed = parse_input(input);
    gen_serialize(&parsed)
        .parse()
        .expect("derive(Serialize): generated code must parse")
}

/// Derives `serde::Deserialize`.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let parsed = parse_input(input);
    gen_deserialize(&parsed)
        .parse()
        .expect("derive(Deserialize): generated code must parse")
}

// ---- parsing ----

struct Cursor {
    tokens: Vec<TokenTree>,
    pos: usize,
}

impl Cursor {
    fn new(ts: TokenStream) -> Self {
        Cursor {
            tokens: ts.into_iter().collect(),
            pos: 0,
        }
    }

    fn peek(&self) -> Option<&TokenTree> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<TokenTree> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat_ident(&mut self, word: &str) -> bool {
        if let Some(TokenTree::Ident(i)) = self.peek() {
            if i.to_string() == word {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn eat_punct(&mut self, ch: char) -> bool {
        if let Some(TokenTree::Punct(p)) = self.peek() {
            if p.as_char() == ch {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    /// Consumes any run of outer attributes, folding `#[serde(...)]`
    /// contents into the returned attribute set.
    fn eat_attrs(&mut self) -> SerdeAttrs {
        let mut attrs = SerdeAttrs::default();
        while self.eat_punct('#') {
            match self.next() {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Bracket => {
                    parse_serde_attr(g.stream(), &mut attrs);
                }
                other => panic!("expected [...] after # in attribute, found {other:?}"),
            }
        }
        attrs
    }

    /// Consumes `pub`, `pub(...)`, or nothing.
    fn eat_visibility(&mut self) {
        if self.eat_ident("pub") {
            if let Some(TokenTree::Group(g)) = self.peek() {
                if g.delimiter() == Delimiter::Parenthesis {
                    self.pos += 1;
                }
            }
        }
    }

    /// Consumes one field type: everything up to a top-level `,` (or end),
    /// tracking `<`/`>` depth so generic arguments survive.
    fn skip_type(&mut self) {
        let mut angle = 0i32;
        while let Some(t) = self.peek() {
            match t {
                TokenTree::Punct(p) if p.as_char() == ',' && angle == 0 => break,
                TokenTree::Punct(p) if p.as_char() == '<' => angle += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => angle -= 1,
                _ => {}
            }
            self.pos += 1;
        }
    }
}

fn parse_serde_attr(body: TokenStream, attrs: &mut SerdeAttrs) {
    let mut c = Cursor::new(body);
    if !c.eat_ident("serde") {
        return; // doc comments, cfg, derive leftovers — ignore
    }
    let Some(TokenTree::Group(g)) = c.next() else {
        return;
    };
    let mut inner = Cursor::new(g.stream());
    while let Some(t) = inner.next() {
        if let TokenTree::Ident(word) = t {
            match word.to_string().as_str() {
                "skip" | "skip_serializing" | "skip_deserializing" => attrs.skip = true,
                "default" => attrs.default = true,
                "deny_unknown_fields" => attrs.deny_unknown_fields = true,
                "rename" => attrs.rename = string_value(&mut inner),
                "tag" => attrs.tag = string_value(&mut inner),
                other => panic!("unsupported serde attribute `{other}` in shim serde_derive"),
            }
        }
    }
}

/// The `"..."` of a `key = "..."` attribute argument.
fn string_value(c: &mut Cursor) -> Option<String> {
    if !c.eat_punct('=') {
        return None;
    }
    match c.next() {
        Some(TokenTree::Literal(lit)) => Some(lit.to_string().trim_matches('"').to_string()),
        _ => None,
    }
}

fn parse_named_fields(body: TokenStream) -> Vec<Field> {
    let mut c = Cursor::new(body);
    let mut fields = Vec::new();
    while c.peek().is_some() {
        let mut attrs = c.eat_attrs();
        c.eat_visibility();
        let name = match c.next() {
            Some(TokenTree::Ident(i)) => i.to_string(),
            other => panic!("expected field name, found {other:?}"),
        };
        assert!(c.eat_punct(':'), "expected `:` after field `{name}`");
        // As in real serde, a missing `Option` field is `None`.
        attrs.default |= matches!(c.peek(), Some(TokenTree::Ident(i)) if i.to_string() == "Option");
        c.skip_type();
        c.eat_punct(',');
        fields.push(Field { name, attrs });
    }
    fields
}

fn count_tuple_fields(body: TokenStream) -> usize {
    let mut c = Cursor::new(body);
    let mut n = 0;
    while c.peek().is_some() {
        c.eat_attrs();
        c.eat_visibility();
        if c.peek().is_none() {
            break; // trailing comma
        }
        c.skip_type();
        c.eat_punct(',');
        n += 1;
    }
    n
}

fn parse_input(input: TokenStream) -> Input {
    let mut c = Cursor::new(input);
    let attrs = c.eat_attrs();
    c.eat_visibility();
    if c.eat_ident("struct") {
        let name = match c.next() {
            Some(TokenTree::Ident(i)) => i.to_string(),
            other => panic!("expected struct name, found {other:?}"),
        };
        match c.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => Input {
                name,
                attrs,
                kind: Kind::Struct(Fields::Named(parse_named_fields(g.stream()))),
            },
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => Input {
                name,
                attrs,
                kind: Kind::Struct(Fields::Tuple(count_tuple_fields(g.stream()))),
            },
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => Input {
                name,
                attrs,
                kind: Kind::Struct(Fields::Unit),
            },
            Some(TokenTree::Punct(p)) if p.as_char() == '<' => {
                panic!("shim serde_derive does not support generic type `{name}`")
            }
            other => panic!("unexpected token after struct name: {other:?}"),
        }
    } else if c.eat_ident("enum") {
        let name = match c.next() {
            Some(TokenTree::Ident(i)) => i.to_string(),
            other => panic!("expected enum name, found {other:?}"),
        };
        let body = match c.next() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g.stream(),
            Some(TokenTree::Punct(p)) if p.as_char() == '<' => {
                panic!("shim serde_derive does not support generic type `{name}`")
            }
            other => panic!("expected enum body, found {other:?}"),
        };
        let mut vc = Cursor::new(body);
        let mut variants = Vec::new();
        while vc.peek().is_some() {
            let attrs = vc.eat_attrs();
            let vname = match vc.next() {
                Some(TokenTree::Ident(i)) => i.to_string(),
                other => panic!("expected variant name, found {other:?}"),
            };
            let fields = match vc.peek() {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                    let f = Fields::Named(parse_named_fields(g.stream()));
                    vc.pos += 1;
                    f
                }
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                    let f = Fields::Tuple(count_tuple_fields(g.stream()));
                    vc.pos += 1;
                    f
                }
                _ => Fields::Unit,
            };
            // Explicit discriminants (`= expr`) are not part of serde's data
            // model; skip to the comma.
            if vc.eat_punct('=') {
                while let Some(t) = vc.peek() {
                    if matches!(t, TokenTree::Punct(p) if p.as_char() == ',') {
                        break;
                    }
                    vc.pos += 1;
                }
            }
            vc.eat_punct(',');
            variants.push(Variant {
                name: vname,
                attrs,
                fields,
            });
        }
        Input {
            name,
            attrs,
            kind: Kind::Enum(variants),
        }
    } else {
        panic!("shim serde_derive supports only structs and enums")
    }
}

// ---- codegen ----

fn wire_name(rust_name: &str, attrs: &SerdeAttrs) -> String {
    attrs
        .rename
        .clone()
        .unwrap_or_else(|| rust_name.to_string())
}

fn gen_serialize(input: &Input) -> String {
    let name = &input.name;
    assert!(
        input.attrs.tag.is_none(),
        "shim: #[serde(tag)] is Deserialize-only"
    );
    let body = match &input.kind {
        Kind::Struct(Fields::Unit) => "::serde::Value::Null".to_string(),
        Kind::Struct(Fields::Tuple(1)) => "::serde::Serialize::to_value(&self.0)".to_string(),
        Kind::Struct(Fields::Tuple(n)) => {
            let items: Vec<String> = (0..*n)
                .map(|i| format!("::serde::Serialize::to_value(&self.{i})"))
                .collect();
            format!("::serde::Value::Array(vec![{}])", items.join(", "))
        }
        Kind::Struct(Fields::Named(fields)) => {
            let mut s = String::from("{ let mut m = ::serde::Map::new();\n");
            for f in fields {
                if f.attrs.skip {
                    continue;
                }
                s.push_str(&format!(
                    "m.insert({:?}.to_string(), ::serde::Serialize::to_value(&self.{}));\n",
                    wire_name(&f.name, &f.attrs),
                    f.name
                ));
            }
            s.push_str("::serde::Value::Object(m) }");
            s
        }
        Kind::Enum(variants) => {
            let mut arms = String::new();
            for v in variants {
                let wire = wire_name(&v.name, &v.attrs);
                match &v.fields {
                    Fields::Unit => arms.push_str(&format!(
                        "{name}::{v} => ::serde::Value::String({wire:?}.to_string()),\n",
                        v = v.name
                    )),
                    Fields::Tuple(1) => arms.push_str(&format!(
                        "{name}::{v}(f0) => {{ let mut m = ::serde::Map::new(); \
                         m.insert({wire:?}.to_string(), ::serde::Serialize::to_value(f0)); \
                         ::serde::Value::Object(m) }}\n",
                        v = v.name
                    )),
                    Fields::Tuple(n) => {
                        let binds: Vec<String> = (0..*n).map(|i| format!("f{i}")).collect();
                        let items: Vec<String> = binds
                            .iter()
                            .map(|b| format!("::serde::Serialize::to_value({b})"))
                            .collect();
                        arms.push_str(&format!(
                            "{name}::{v}({binds}) => {{ let mut m = ::serde::Map::new(); \
                             m.insert({wire:?}.to_string(), ::serde::Value::Array(vec![{items}])); \
                             ::serde::Value::Object(m) }}\n",
                            v = v.name,
                            binds = binds.join(", "),
                            items = items.join(", ")
                        ));
                    }
                    Fields::Named(fields) => {
                        let binds: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
                        let mut inner = String::from("let mut fm = ::serde::Map::new();\n");
                        for f in fields {
                            if f.attrs.skip {
                                continue;
                            }
                            inner.push_str(&format!(
                                "fm.insert({:?}.to_string(), ::serde::Serialize::to_value({}));\n",
                                wire_name(&f.name, &f.attrs),
                                f.name
                            ));
                        }
                        arms.push_str(&format!(
                            "{name}::{v} {{ {binds} }} => {{ {inner} \
                             let mut m = ::serde::Map::new(); \
                             m.insert({wire:?}.to_string(), ::serde::Value::Object(fm)); \
                             ::serde::Value::Object(m) }}\n",
                            v = v.name,
                            binds = binds.join(", ")
                        ));
                    }
                }
            }
            format!("match self {{\n{arms}\n}}")
        }
    };
    format!(
        "#[automatically_derived]\n\
         impl ::serde::Serialize for {name} {{\n\
             fn to_value(&self) -> ::serde::Value {{ {body} }}\n\
         }}"
    )
}

/// With `deny_unknown_fields`, rejects any key of `obj` that is not a
/// wire name of `fields` or `tag`.
fn gen_unknown_check(input: &Input, fields: &[Field], tag: Option<&str>) -> String {
    if !input.attrs.deny_unknown_fields {
        return String::new();
    }
    let known: Vec<String> = (fields.iter().filter(|f| !f.attrs.skip))
        .map(|f| wire_name(&f.name, &f.attrs))
        .chain(tag.map(str::to_string))
        .collect();
    let list: Vec<String> = known.iter().map(|k| format!("`{k}`")).collect();
    let pattern: Vec<String> = known.iter().map(|k| format!("{k:?}")).collect();
    format!(
        "for k in obj.keys() {{ if !matches!(k.as_str(), {}) {{ \
         return ::core::result::Result::Err(::serde::DeError::custom({:?}).at_field(k)); }} }}\n",
        pattern.join(" | "),
        format!("unknown field, expected one of {}", list.join(", "))
    )
}

fn gen_named_ctor(path: &str, fields: &[Field], obj: &str) -> String {
    let mut inits = String::new();
    for f in fields {
        if f.attrs.skip {
            inits.push_str(&format!(
                "{}: ::core::default::Default::default(),\n",
                f.name
            ));
            continue;
        }
        let wire = wire_name(&f.name, &f.attrs);
        let missing = if f.attrs.default {
            "::core::default::Default::default()".to_string()
        } else {
            format!(
                "return ::core::result::Result::Err(\
                 ::serde::DeError::custom(\"missing field\").at_field({wire:?}))"
            )
        };
        inits.push_str(&format!(
            "{}: match {obj}.get({wire:?}) {{ \
             Some(v) => ::serde::Deserialize::from_value(v).map_err(|e| e.at_field({wire:?}))?, \
             None => {missing} }},\n",
            f.name
        ));
    }
    format!("{path} {{ {inits} }}")
}

/// An internally tagged enum (`#[serde(tag = "...")]`): one object whose
/// `tag` key names the variant and whose other keys are its fields.
fn gen_tagged_deserialize(input: &Input, variants: &[Variant]) -> String {
    let tag = input.attrs.tag.as_deref().unwrap_or_default();
    let mut arms = String::new();
    let mut names = Vec::new();
    for var in variants {
        let wire = wire_name(&var.name, &var.attrs);
        let fields: &[Field] = match &var.fields {
            Fields::Unit => &[],
            Fields::Named(fields) => fields,
            Fields::Tuple(_) => panic!("shim serde_derive: tagged variant `{wire}` is a tuple"),
        };
        let check = gen_unknown_check(input, fields, Some(tag));
        let ctor = gen_named_ctor(&format!("{}::{}", input.name, var.name), fields, "obj");
        arms.push_str(&format!(
            "{wire:?} => {{ {check} ::core::result::Result::Ok({ctor}) }}\n"
        ));
        names.push(format!("`{wire}`"));
    }
    format!(
        "let obj = v.as_object().ok_or_else(|| ::serde::DeError::invalid_type(\"an object\", v))?;\n\
         let tag = match obj.get({tag:?}) {{\n\
             ::core::option::Option::Some(t) => t.as_str().ok_or_else(|| \
                 ::serde::DeError::invalid_type(\"a string\", t).at_field({tag:?}))?,\n\
             ::core::option::Option::None => return ::core::result::Result::Err(\
                 ::serde::DeError::custom(\"missing field\").at_field({tag:?})),\n\
         }};\n\
         match tag {{\n{arms}\
             other => ::core::result::Result::Err(::serde::DeError::custom(::std::format!(\
                 \"unknown variant {{other:?}}, expected one of {names}\")).at_field({tag:?})),\n\
         }}",
        names = names.join(", ")
    )
}

fn gen_deserialize(input: &Input) -> String {
    let name = &input.name;
    let body = match &input.kind {
        Kind::Struct(Fields::Unit) => format!("::core::result::Result::Ok({name})"),
        Kind::Struct(Fields::Tuple(1)) => {
            format!("::core::result::Result::Ok({name}(::serde::Deserialize::from_value(v)?))")
        }
        Kind::Struct(Fields::Tuple(n)) => {
            let items: Vec<String> = (0..*n)
                .map(|i| format!("::serde::Deserialize::from_value(&a[{i}])?"))
                .collect();
            format!(
                "let a = v.as_array().ok_or_else(|| ::serde::DeError::custom(\
                 \"expected array for tuple struct {name}\"))?;\n\
                 if a.len() != {n} {{ return ::core::result::Result::Err(\
                 ::serde::DeError::custom(\"wrong tuple arity for {name}\")); }}\n\
                 ::core::result::Result::Ok({name}({items}))",
                items = items.join(", ")
            )
        }
        Kind::Struct(Fields::Named(fields)) => {
            let ctor = gen_named_ctor(name, fields, "obj");
            let check = gen_unknown_check(input, fields, None);
            format!(
                "let obj = v.as_object().ok_or_else(|| \
                 ::serde::DeError::invalid_type(\"an object\", v))?;\n\
                 {check}\
                 ::core::result::Result::Ok({ctor})"
            )
        }
        Kind::Enum(variants) if input.attrs.tag.is_some() => {
            gen_tagged_deserialize(input, variants)
        }
        Kind::Enum(variants) => {
            let mut unit_arms = String::new();
            let mut obj_arms = String::new();
            for var in variants {
                let wire = wire_name(&var.name, &var.attrs);
                match &var.fields {
                    Fields::Unit => {
                        unit_arms.push_str(&format!(
                            "{wire:?} => return ::core::result::Result::Ok({name}::{v}),\n",
                            v = var.name
                        ));
                    }
                    Fields::Tuple(1) => {
                        obj_arms.push_str(&format!(
                            "{wire:?} => return ::core::result::Result::Ok(\
                             {name}::{v}(::serde::Deserialize::from_value(inner)\
                             .map_err(|e| e.at_field({wire:?}))?)),\n",
                            v = var.name
                        ));
                    }
                    Fields::Tuple(n) => {
                        let items: Vec<String> = (0..*n)
                            .map(|i| format!("::serde::Deserialize::from_value(&a[{i}])?"))
                            .collect();
                        obj_arms.push_str(&format!(
                            "{wire:?} => {{ let a = inner.as_array().ok_or_else(|| \
                             ::serde::DeError::custom(\"expected array for variant {wire}\"))?;\n\
                             if a.len() != {n} {{ return ::core::result::Result::Err(\
                             ::serde::DeError::custom(\"wrong arity for variant {wire}\")); }}\n\
                             return ::core::result::Result::Ok({name}::{v}({items})); }}\n",
                            v = var.name,
                            items = items.join(", ")
                        ));
                    }
                    Fields::Named(fields) => {
                        let ctor = gen_named_ctor(&format!("{name}::{}", var.name), fields, "fo");
                        obj_arms.push_str(&format!(
                            "{wire:?} => {{ let fo = inner.as_object().ok_or_else(|| \
                             ::serde::DeError::custom(\"expected object for variant {wire}\"))?;\n\
                             return ::core::result::Result::Ok({ctor}); }}\n"
                        ));
                    }
                }
            }
            format!(
                "if let ::core::option::Option::Some(s) = v.as_str() {{\n\
                     match s {{ {unit_arms} _ => {{}} }}\n\
                 }}\n\
                 if let ::core::option::Option::Some(obj) = v.as_object() {{\n\
                     if obj.len() == 1 {{\n\
                         let (tag, inner) = obj.iter().next().expect(\"len checked\");\n\
                         match tag.as_str() {{ {obj_arms} _ => return \
                         ::core::result::Result::Err(::serde::DeError::custom(\
                         \"unknown variant\").at_field(tag)) }}\n\
                     }}\n\
                 }}\n\
                 ::core::result::Result::Err(::serde::DeError::custom(\
                 \"no matching variant of {name}\"))"
            )
        }
    };
    format!(
        "#[automatically_derived]\n\
         impl ::serde::Deserialize for {name} {{\n\
             fn from_value(v: &::serde::Value) -> ::core::result::Result<Self, ::serde::DeError> {{\n\
                 {body}\n\
             }}\n\
         }}"
    )
}
