//! A small line-oriented text loader.
//!
//! The paper loads from Neo4j with a single Cypher query; examples in this
//! repository instead read a simple text format so they stay self-contained:
//!
//! ```text
//! # comment / blank lines ignored
//! N <id> <label;label|-> <key=value,key=value|->
//! E <srcId> <tgtId> <label;label|-> <key=value,...|->
//! ```
//!
//! `-` stands for "no labels" / "no properties". Values are parsed with
//! [`Value::parse_lexical`], so `age=42` becomes an integer and
//! `bday=1999-12-19` a date. Reserved characters inside values (space,
//! comma, equals, percent) are percent-encoded by [`save_text`] and decoded
//! on load, so arbitrary strings round-trip. Label names must not contain
//! `;` (the label-set separator here and in the CSV exporter) or
//! whitespace.

use crate::builder::GraphBuilder;
use crate::element::NodeId;
use crate::graph::PropertyGraph;
use crate::stream::raw::RecordKind;
use crate::stream::RecordBuf;
use crate::value::Value;
use std::collections::HashMap;
use std::fmt;

/// Errors produced while parsing the text format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadError {
    /// A line did not start with `N` or `E`.
    UnknownRecord {
        /// 1-based line number.
        line: usize,
    },
    /// Wrong number of fields for the record type.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// Fields the record type requires.
        expected: usize,
    },
    /// An edge referenced an id never declared by an `N` line.
    UnknownNode {
        /// 1-based line number.
        line: usize,
        /// The undeclared node id.
        id: String,
    },
    /// A `key=value` pair had no `=`.
    BadProperty {
        /// 1-based line number.
        line: usize,
        /// The offending token.
        token: String,
    },
    /// The same node id was declared twice.
    DuplicateNode {
        /// 1-based line number.
        line: usize,
        /// The duplicated node id.
        id: String,
    },
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::UnknownRecord { line } => {
                write!(f, "line {line}: record must start with 'N' or 'E'")
            }
            LoadError::Malformed { line, expected } => {
                write!(f, "line {line}: expected {expected} fields")
            }
            LoadError::UnknownNode { line, id } => {
                write!(f, "line {line}: unknown node id '{id}'")
            }
            LoadError::BadProperty { line, token } => {
                write!(f, "line {line}: bad property token '{token}'")
            }
            LoadError::DuplicateNode { line, id } => {
                write!(f, "line {line}: duplicate node id '{id}'")
            }
        }
    }
}

impl std::error::Error for LoadError {}

/// Parse the `.pgt` line held in `buf.text` **in place**, recording field
/// spans instead of allocating owned strings. Returns `Ok(false)` for blank
/// lines and `#` comments. The one `.pgt` parser: the streaming
/// [`crate::stream::pgt::PgtSource`] and the resident [`load_text`] both
/// go through it.
pub(crate) fn parse_line_into(line: usize, buf: &mut RecordBuf) -> Result<bool, LoadError> {
    let trimmed = buf.text.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') {
        return Ok(false);
    }
    // Record the whitespace-separated fields as byte offsets into the
    // line. `N` needs 4 fields, `E` needs 5; anything beyond 6 is
    // malformed for both, so a fixed-size span array suffices.
    let base = buf.text.as_ptr() as usize;
    let mut spans = [(0u32, 0u32); 6];
    let mut n = 0usize;
    let mut fields = trimmed.split_whitespace();
    for f in fields.by_ref() {
        if n == spans.len() {
            break;
        }
        spans[n] = ((f.as_ptr() as usize - base) as u32, f.len() as u32);
        n += 1;
    }
    let overflow = n == spans.len() && fields.next().is_some();
    match buf.str(spans[0]) {
        "N" => {
            if n != 4 || overflow {
                return Err(LoadError::Malformed { line, expected: 4 });
            }
            buf.kind = RecordKind::Node;
            buf.id = spans[1];
            parse_labels_into(buf, spans[2]);
            parse_props_into(buf, spans[3], line)?;
            Ok(true)
        }
        "E" => {
            if n != 5 || overflow {
                return Err(LoadError::Malformed { line, expected: 5 });
            }
            buf.kind = RecordKind::Edge;
            buf.id = spans[1];
            buf.tgt = spans[2];
            parse_labels_into(buf, spans[3]);
            parse_props_into(buf, spans[4], line)?;
            Ok(true)
        }
        _ => Err(LoadError::UnknownRecord { line }),
    }
}

fn parse_labels_into(buf: &mut RecordBuf, span: (u32, u32)) {
    if buf.str(span) == "-" {
        return;
    }
    let text = &buf.text;
    let base = text.as_ptr() as usize;
    let field = &text[span.0 as usize..(span.0 + span.1) as usize];
    for part in field.split(';') {
        if part.is_empty() {
            continue;
        }
        buf.labels
            .push(((part.as_ptr() as usize - base) as u32, part.len() as u32));
    }
}

fn parse_props_into(buf: &mut RecordBuf, span: (u32, u32), line: usize) -> Result<(), LoadError> {
    if buf.str(span) == "-" {
        return Ok(());
    }
    let text = &buf.text;
    let base = text.as_ptr() as usize;
    let field = &text[span.0 as usize..(span.0 + span.1) as usize];
    for token in field.split(',') {
        if token.is_empty() {
            continue;
        }
        let Some((k, v)) = token.split_once('=') else {
            return Err(LoadError::BadProperty {
                line,
                token: token.to_string(),
            });
        };
        let key = ((k.as_ptr() as usize - base) as u32, k.len() as u32);
        let value = Value::parse_lexical(&percent_decode(v));
        buf.props.push((key, value));
    }
    Ok(())
}

/// Parse the text format into a [`PropertyGraph`].
///
/// `E` lines may reference node ids declared *later* in the file —
/// concatenated or re-ordered exports are common — so edges are deferred
/// and resolved after the full pass. Edge ids are assigned in `E`-line
/// order. [`LoadError::UnknownNode`] is reserved for ids never declared by
/// any `N` line.
pub fn load_text(input: &str) -> Result<PropertyGraph, LoadError> {
    let mut b = GraphBuilder::new();
    let mut buf = RecordBuf::new();
    let mut ids: HashMap<String, NodeId> = HashMap::new();
    // `E` lines are parsed (and checked) in line order, then parsed again
    // once every node is known; only their line number and text are kept.
    let mut edge_lines: Vec<(usize, &str)> = Vec::new();

    for (lineno, raw) in input.lines().enumerate() {
        let line = lineno + 1;
        if !parse_str_into(line, raw, &mut buf)? {
            continue;
        }
        match buf.kind {
            RecordKind::Node => {
                let id = buf.str(buf.id);
                if ids.contains_key(id) {
                    return Err(LoadError::DuplicateNode {
                        line,
                        id: id.to_string(),
                    });
                }
                let id = id.to_string();
                let nid = b.add_node_from_buf(&mut buf);
                ids.insert(id, nid);
            }
            RecordKind::Edge => edge_lines.push((line, raw)),
        }
    }

    for (line, raw) in edge_lines {
        parse_str_into(line, raw, &mut buf)?;
        let endpoint = |span| {
            let id = buf.str(span);
            ids.get(id).copied().ok_or_else(|| LoadError::UnknownNode {
                line,
                id: id.to_string(),
            })
        };
        let (src, tgt) = (endpoint(buf.id)?, endpoint(buf.tgt)?);
        b.add_edge_from_buf(src, tgt, &mut buf);
    }
    Ok(b.finish())
}

/// [`parse_line_into`] over a borrowed line.
fn parse_str_into(line: usize, raw: &str, buf: &mut RecordBuf) -> Result<bool, LoadError> {
    buf.clear();
    buf.text.push_str(raw);
    parse_line_into(line, buf)
}

/// Serialize a graph back to the text format, the inverse of [`load_text`]:
/// `load_text(&save_text(&g))` reproduces `g` up to node-id naming.
pub fn save_text(g: &PropertyGraph) -> String {
    let mut out = String::new();
    for (id, n) in g.nodes() {
        out.push_str(&format!(
            "N n{} {} {}\n",
            id.0,
            labels_field(g, &n.labels),
            props_field(g, &n.props)
        ));
    }
    for (_, e) in g.edges() {
        out.push_str(&format!(
            "E n{} n{} {} {}\n",
            e.src.0,
            e.tgt.0,
            labels_field(g, &e.labels),
            props_field(g, &e.props)
        ));
    }
    out
}

fn labels_field(g: &PropertyGraph, labels: &[crate::Symbol]) -> String {
    if labels.is_empty() {
        "-".to_string()
    } else {
        labels
            .iter()
            .map(|&l| g.label_str(l))
            .collect::<Vec<_>>()
            .join(";")
    }
}

fn props_field(g: &PropertyGraph, props: &[(crate::Symbol, Value)]) -> String {
    if props.is_empty() {
        "-".to_string()
    } else {
        props
            .iter()
            .map(|(k, v)| format!("{}={}", g.key_str(*k), percent_encode(&v.to_string())))
            .collect::<Vec<_>>()
            .join(",")
    }
}

/// Encode the characters the line format reserves (space splits fields,
/// comma splits properties, equals splits key from value, percent is the
/// escape itself).
fn percent_encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            ' ' => out.push_str("%20"),
            ',' => out.push_str("%2C"),
            '=' => out.push_str("%3D"),
            '%' => out.push_str("%25"),
            other => out.push(other),
        }
    }
    out
}

/// Decode `%XX` escapes; borrows the input unchanged when it contains no
/// `%` at all (the overwhelmingly common case for property values).
pub(crate) fn percent_decode(s: &str) -> std::borrow::Cow<'_, str> {
    if !s.contains('%') {
        return std::borrow::Cow::Borrowed(s);
    }
    let mut out = String::with_capacity(s.len());
    let bytes = s.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            if let (Some(&h), Some(&l)) = (bytes.get(i + 1), bytes.get(i + 2)) {
                if let (Some(h), Some(l)) = (hex_val(h), hex_val(l)) {
                    out.push((h * 16 + l) as char);
                    i += 3;
                    continue;
                }
            }
        }
        let c = s[i..].chars().next().expect("i is on a char boundary");
        out.push(c);
        i += c.len_utf8();
    }
    std::borrow::Cow::Owned(out)
}

fn hex_val(b: u8) -> Option<u8> {
    match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'A'..=b'F' => Some(b - b'A' + 10),
        b'a'..=b'f' => Some(b - b'a' + 10),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::ValueKind;

    #[test]
    fn loads_small_graph() {
        let g = load_text(
            "# fig-1 fragment\n\
             N bob Person name=Bob,gender=male,bday=1980-05-02\n\
             N alice - name=Alice,gender=female,bday=1999-12-19\n\
             N org Org url=example.com,name=Example\n\
             E bob org WORKS_AT from=2000\n\
             E alice bob KNOWS -\n",
        )
        .unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
        let (_, alice) = g.nodes().nth(1).unwrap();
        assert!(alice.is_unlabeled());
        let bday = g.keys().get("bday").unwrap();
        assert_eq!(alice.get(bday).unwrap().kind(), ValueKind::Date);
    }

    #[test]
    fn rejects_unknown_node() {
        let err = load_text("E a b KNOWS -").unwrap_err();
        assert!(matches!(err, LoadError::UnknownNode { line: 1, .. }));
    }

    #[test]
    fn forward_edge_references_resolve() {
        // Regression: an `E` line may reference a node declared later (a
        // concatenated or re-ordered export); the single-pass loader used
        // to fail this with UnknownNode.
        let g = load_text(
            "E a b KNOWS since=2020\n\
             N a Person name=Ann\n\
             E b a KNOWS -\n\
             N b Person name=Bob\n",
        )
        .unwrap();
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 2);
        let (_, e0) = g.edges().next().unwrap();
        // Edge ids follow E-line order: first edge is a -> b.
        assert_eq!((e0.src.0, e0.tgt.0), (0, 1));
        // The error is kept for ids never declared anywhere.
        let err = load_text("N a - -\nE a ghost KNOWS -").unwrap_err();
        assert!(
            matches!(err, LoadError::UnknownNode { line: 2, ref id } if id == "ghost"),
            "{err:?}"
        );
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(matches!(
            load_text("N onlyid").unwrap_err(),
            LoadError::Malformed { expected: 4, .. }
        ));
        assert!(matches!(
            load_text("X what is this").unwrap_err(),
            LoadError::UnknownRecord { line: 1 }
        ));
    }

    #[test]
    fn malformed_arity_reports_expected_field_counts() {
        // Regression for the allocation-free parser rewrite: too few
        // AND too many fields must still report the record type's arity —
        // 4 for `N`, 5 for `E` — exactly as the Vec-collecting parser did.
        for (input, want) in [
            ("N onlyid", 4),
            ("N a -", 4),
            ("N a - - extra", 4),
            ("E a b", 5),
            ("E a b KNOWS", 5),
            ("E a b KNOWS - extra", 5),
        ] {
            match load_text(input).unwrap_err() {
                LoadError::Malformed { line: 1, expected } => {
                    assert_eq!(expected, want, "{input:?}")
                }
                other => panic!("{input:?}: expected Malformed, got {other:?}"),
            }
        }
    }

    #[test]
    fn rejects_bad_property_token() {
        let err = load_text("N a Person nameBob").unwrap_err();
        assert!(matches!(err, LoadError::BadProperty { .. }));
    }

    #[test]
    fn rejects_duplicate_node_ids() {
        let err = load_text("N a - -\nN a - -").unwrap_err();
        assert!(matches!(err, LoadError::DuplicateNode { line: 2, .. }));
    }

    #[test]
    fn multi_labels_split_on_semicolon() {
        let g = load_text("N a Person;Student -").unwrap();
        let (_, n) = g.nodes().next().unwrap();
        assert_eq!(g.label_set_str(&n.labels), "{Person, Student}");
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let g = load_text("\n# hi\n  \nN a - -\n").unwrap();
        assert_eq!(g.node_count(), 1);
    }

    #[test]
    fn save_load_round_trip() {
        let original = load_text(
            "N bob Person;Human name=Bob,age=45,bday=1980-05-02\n\
             N anon - score=2.5\n\
             N org Org url=example.com\n\
             E bob org WORKS_AT from=2000,active=true\n\
             E anon bob KNOWS -\n",
        )
        .unwrap();
        let text = save_text(&original);
        let reloaded = load_text(&text).unwrap();
        assert_eq!(reloaded.node_count(), original.node_count());
        assert_eq!(reloaded.edge_count(), original.edge_count());
        for ((_, a), (_, b)) in original.nodes().zip(reloaded.nodes()) {
            let la: Vec<&str> = a.labels.iter().map(|&l| original.label_str(l)).collect();
            let lb: Vec<&str> = b.labels.iter().map(|&l| reloaded.label_str(l)).collect();
            assert_eq!(la, lb);
            assert_eq!(a.props.len(), b.props.len());
            for ((ka, va), (kb, vb)) in a.props.iter().zip(&b.props) {
                assert_eq!(original.key_str(*ka), reloaded.key_str(*kb));
                assert_eq!(va.kind(), vb.kind(), "value kind preserved");
                assert_eq!(va.lexical(), vb.lexical());
            }
        }
        for ((_, a), (_, b)) in original.edges().zip(reloaded.edges()) {
            assert_eq!(a.src.0, b.src.0);
            assert_eq!(a.tgt.0, b.tgt.0);
        }
    }

    #[test]
    fn save_empty_graph() {
        assert_eq!(save_text(&PropertyGraph::new()), "");
    }

    #[test]
    fn values_with_reserved_characters_round_trip() {
        let mut b = GraphBuilder::new();
        b.add_node(
            &["Doc"],
            &[
                ("text", Value::from("graph schema, node=edge 100%")),
                ("clean", Value::Int(7)),
            ],
        );
        let original = b.finish();
        let reloaded = load_text(&save_text(&original)).unwrap();
        let (_, n) = reloaded.nodes().next().unwrap();
        let key = reloaded.keys().get("text").unwrap();
        assert_eq!(
            n.get(key),
            Some(&Value::from("graph schema, node=edge 100%"))
        );
    }

    #[test]
    fn percent_decode_tolerates_bare_percent() {
        assert_eq!(percent_decode("50%"), "50%");
        assert_eq!(percent_decode("a%2Gb"), "a%2Gb", "invalid hex left as-is");
        assert_eq!(percent_decode("%20"), " ");
    }

    #[test]
    fn error_display_is_informative() {
        let e = LoadError::UnknownNode {
            line: 3,
            id: "z".into(),
        };
        assert_eq!(e.to_string(), "line 3: unknown node id 'z'");
    }
}
