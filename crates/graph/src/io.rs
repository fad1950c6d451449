//! Plain-text serialization of attributed graphs.
//!
//! Format (line-oriented, `#`-comments allowed):
//!
//! ```text
//! csag-graph v1
//! dims 2
//! node 0 movie,crime,drama 9.2 1600000
//! node 1 movie,crime 9.0 1100000
//! edge 0 1
//! ```
//!
//! Token lists are comma-separated (empty list written as `-`); numerical
//! attributes follow as whitespace-separated finite floats (`nan`, `inf`
//! and overflowing literals are parse errors). This is meant for
//! examples and fixtures, not bulk storage.

use crate::attrs::NodeAttributes;
use crate::builder::{GraphBuilder, GraphError};
use crate::graph::AttributedGraph;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Writes `g` in the v1 text format.
///
/// # Errors
/// `InvalidInput`, before anything is written, when a node holds a token
/// the reader would not read back as itself: an empty token, one holding
/// `,` or whitespace, or a node's lone token `-`. Otherwise whatever
/// `out` fails with.
pub fn write_graph<W: Write>(g: &AttributedGraph, out: W) -> io::Result<()> {
    check_writable(g.attrs())?;
    let mut w = BufWriter::new(out);
    writeln!(w, "csag-graph v1")?;
    writeln!(w, "dims {}", g.attrs().dims())?;
    for v in 0..g.n() as u32 {
        write!(w, "node {v} ")?;
        write_token_field(&mut w, g.attrs(), v)?;
        for x in g.numeric_raw(v) {
            write!(w, " {x}")?;
        }
        writeln!(w)?;
    }
    for (u, v) in g.edges() {
        writeln!(w, "edge {u} {v}")?;
    }
    w.flush()
}

/// Refuses a graph holding a token the reader would not read back as
/// itself: an empty token, one containing `,` or whitespace, or the lone
/// token `-` of a node (the field `-` reads as no tokens). A graph from
/// [`read_graph`] always passes; one made with a builder may not. The
/// vocabulary is checked once, so the pass over the nodes only looks up
/// lone tokens unless some name cannot be written.
fn check_writable(attrs: &NodeAttributes) -> io::Result<()> {
    let interner = attrs.interner();
    let name = |t: u32| interner.name(t).unwrap_or("?");
    let unwritable: Vec<u32> = (0..interner.len() as u32)
        .filter(|&t| {
            let name = name(t);
            name.is_empty() || name.contains(|c: char| c == ',' || c.is_whitespace())
        })
        .collect();
    for v in 0..attrs.n() as u32 {
        let toks = attrs.tokens(v);
        let bad = match toks {
            [t] if name(*t) == "-" => Some(*t),
            _ if unwritable.is_empty() => None,
            _ => toks
                .iter()
                .copied()
                .find(|t| unwritable.binary_search(t).is_ok()),
        };
        if let Some(t) = bad {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "node {v} holds the token {:?}, which the text format cannot hold",
                    name(t)
                ),
            ));
        }
    }
    Ok(())
}

/// Writes node `v`'s comma-separated token field, `-` when it has none.
fn write_token_field<W: Write>(w: &mut W, attrs: &NodeAttributes, v: u32) -> io::Result<()> {
    let mut names = attrs
        .tokens(v)
        .iter()
        .map(|&t| attrs.interner().name(t).unwrap_or("?"));
    let Some(first) = names.next() else {
        return w.write_all(b"-");
    };
    w.write_all(first.as_bytes())?;
    for name in names {
        w.write_all(b",")?;
        w.write_all(name.as_bytes())?;
    }
    Ok(())
}

/// Saves `g` to `path` in the v1 text format.
pub fn save_graph<P: AsRef<Path>>(g: &AttributedGraph, path: P) -> io::Result<()> {
    write_graph(g, std::fs::File::create(path)?)
}

fn parse_err(line_no: usize, msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("line {line_no}: {msg}"))
}

/// Parses one numerical attribute. `f64::from_str` also accepts `nan` and
/// `inf` and rounds `1e999` to infinity; none of them is an attribute the
/// metric can use (min-max normalization and every `f(·,q)` ordering need
/// finite values), so they are refused where text enters the program.
pub(crate) fn parse_finite(field: &str) -> Option<f64> {
    field.parse().ok().filter(|x: &f64| x.is_finite())
}

/// Splits a comma-separated token field: `None` for `-`, the empty list.
/// Shared by the graph reader and the `csag-updates v1` reader, so what
/// one accepts the other writes back. Refuses an empty token (`a,,b`,
/// `,`) and a list of nothing but `-` (`-,-`), which a node would hold
/// as the lone token `-`, written back as `-`: no tokens at all.
pub(crate) fn parse_token_field(field: &str) -> Result<Option<Vec<&str>>, String> {
    if field == "-" {
        return Ok(None);
    }
    let tokens: Vec<&str> = field.split(',').collect();
    if tokens.iter().any(|t| t.is_empty()) {
        return Err(format!("empty token in `{field}`"));
    }
    if tokens.iter().all(|&t| t == "-") {
        return Err(format!("only `-` tokens in `{field}`"));
    }
    Ok(Some(tokens))
}

/// The numerical attributes that end the `node` record of node `id`:
/// exactly `dims` of them. The count is checked here, against what the
/// line holds, so no builder ever pads a row out to a `dims` header that
/// the rows never back up.
fn parse_numeric<'a>(
    parts: impl Iterator<Item = &'a str>,
    id: u32,
    dims: usize,
    no: usize,
) -> io::Result<Vec<f64>> {
    let numeric = parts
        .map(|p| parse_finite(p).ok_or_else(|| parse_err(no, "bad numeric attribute")))
        .collect::<io::Result<Vec<f64>>>()?;
    if numeric.len() != dims {
        let mismatch = GraphError::DimMismatch {
            node: id,
            expected: dims,
            got: numeric.len(),
        };
        return Err(parse_err(no, &mismatch.to_string()));
    }
    Ok(numeric)
}

/// Reads a graph in the v1 text format.
///
/// Nodes must be declared with consecutive ids starting at 0, before any
/// edge that references them. A field after a record's last one
/// (`edge 0 1 0.5`, `dims 1 7`) is refused, never dropped.
pub fn read_graph<R: Read>(input: R) -> io::Result<AttributedGraph> {
    let reader = BufReader::new(input);
    let mut lines = reader.lines().enumerate();

    let header = loop {
        match lines.next() {
            Some((no, line)) => {
                let line = line?;
                let t = line.trim();
                if t.is_empty() || t.starts_with('#') {
                    continue;
                }
                break (no + 1, t.to_string());
            }
            None => return Err(parse_err(0, "empty input")),
        }
    };
    if header.1 != "csag-graph v1" {
        return Err(parse_err(header.0, "expected header `csag-graph v1`"));
    }

    let mut builder: Option<GraphBuilder> = None;
    let mut dims = 0;
    for (no, line) in lines {
        let line = line?;
        let no = no + 1;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        let mut parts = t.split_whitespace();
        match parts.next() {
            Some("dims") => {
                if builder.is_some() {
                    return Err(parse_err(no, "dims given twice"));
                }
                let d: usize = parts
                    .next()
                    .ok_or_else(|| parse_err(no, "dims needs a value"))?
                    .parse()
                    .map_err(|_| parse_err(no, "bad dims value"))?;
                dims = d;
                builder = Some(GraphBuilder::new(d));
            }
            Some("node") => {
                let b = builder
                    .as_mut()
                    .ok_or_else(|| parse_err(no, "`dims` must precede nodes"))?;
                let id: u32 = parts
                    .next()
                    .ok_or_else(|| parse_err(no, "node needs an id"))?
                    .parse()
                    .map_err(|_| parse_err(no, "bad node id"))?;
                if id as usize != b.node_count() {
                    return Err(parse_err(no, "node ids must be consecutive from 0"));
                }
                let token_field = parts
                    .next()
                    .ok_or_else(|| parse_err(no, "node needs a token field"))?;
                let tokens = parse_token_field(token_field)
                    .map_err(|e| parse_err(no, &e))?
                    .unwrap_or_default();
                let numeric = parse_numeric(parts.by_ref(), id, dims, no)?;
                b.add_node(&tokens, &numeric);
            }
            Some("edge") => {
                let b = builder
                    .as_mut()
                    .ok_or_else(|| parse_err(no, "`dims` must precede edges"))?;
                let u: u32 = parts
                    .next()
                    .ok_or_else(|| parse_err(no, "edge needs two endpoints"))?
                    .parse()
                    .map_err(|_| parse_err(no, "bad edge endpoint"))?;
                let v: u32 = parts
                    .next()
                    .ok_or_else(|| parse_err(no, "edge needs two endpoints"))?
                    .parse()
                    .map_err(|_| parse_err(no, "bad edge endpoint"))?;
                b.add_edge(u, v)
                    .map_err(|e| parse_err(no, &e.to_string()))?;
            }
            Some(other) => return Err(parse_err(no, &format!("unknown record `{other}`"))),
            None => unreachable!("non-empty line"),
        }
        if parts.next().is_some() {
            return Err(parse_err(no, "trailing fields"));
        }
    }
    let b = builder.ok_or_else(|| parse_err(0, "missing `dims` record"))?;
    b.build()
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

/// Loads a graph from `path` in the v1 text format.
pub fn load_graph<P: AsRef<Path>>(path: P) -> io::Result<AttributedGraph> {
    read_graph(std::fs::File::open(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn sample() -> AttributedGraph {
        let mut b = GraphBuilder::new(2);
        b.add_node(&["movie", "crime"], &[9.2, 1.6e6]);
        b.add_node(&["movie", "drama"], &[9.0, 1.1e6]);
        b.add_node(&[], &[5.0, 100.0]);
        b.add_edge(0, 1).unwrap();
        b.add_edge(1, 2).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn round_trip_preserves_structure_and_attrs() {
        let g = sample();
        let mut buf = Vec::new();
        write_graph(&g, &mut buf).unwrap();
        let g2 = read_graph(&buf[..]).unwrap();
        assert_eq!(g2.n(), g.n());
        assert_eq!(g2.m(), g.m());
        assert!(g2.has_edge(0, 1));
        assert!(g2.has_edge(1, 2));
        assert!(!g2.has_edge(0, 2));
        for v in 0..3 {
            assert_eq!(g2.numeric_raw(v), g.numeric_raw(v));
            let names = |g: &AttributedGraph, v: u32| {
                let mut ns: Vec<String> = g
                    .tokens(v)
                    .iter()
                    .map(|&t| g.interner().name(t).unwrap().to_string())
                    .collect();
                ns.sort();
                ns
            };
            assert_eq!(names(&g2, v), names(&g, v));
        }
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let text =
            "# a fixture\n\ncsag-graph v1\ndims 1\n# nodes\nnode 0 a 1\nnode 1 - 2\nedge 0 1\n";
        let g = read_graph(text.as_bytes()).unwrap();
        assert_eq!(g.n(), 2);
        assert_eq!(g.m(), 1);
        assert!(g.tokens(1).is_empty());
    }

    #[test]
    fn bad_header_is_rejected() {
        let err = read_graph("nope v2\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("header"));
    }

    #[test]
    fn non_consecutive_node_ids_are_rejected() {
        let text = "csag-graph v1\ndims 0\nnode 5 -\n";
        assert!(read_graph(text.as_bytes()).is_err());
    }

    #[test]
    fn edge_before_dims_is_rejected() {
        let text = "csag-graph v1\nedge 0 1\n";
        assert!(read_graph(text.as_bytes()).is_err());
    }

    /// A second `dims` record used to replace the builder, silently
    /// dropping every node and edge read before it.
    #[test]
    fn second_dims_record_is_refused() {
        let text = "csag-graph v1\ndims 1\nnode 0 a 1\nnode 1 b 2\nedge 0 1\ndims 1\nnode 0 c 5\n";
        let err = read_graph(text.as_bytes()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(err.to_string(), "line 6: dims given twice");
    }

    /// A field after a record's last one is refused, not dropped: else
    /// `edge 0 1 0.5` reads as an unweighted edge and `dims 1 7` as
    /// `dims 1`. (A node row's extra numeric is a width mismatch.)
    #[test]
    fn trailing_fields_are_refused() {
        for (text, line) in [
            ("csag-graph v1\ndims 1 7\nnode 0 a 1\n", 2),
            (
                "csag-graph v1\ndims 1\nnode 0 a 1\nnode 1 b 2\nedge 0 1 0.5\n",
                5,
            ),
            (
                "csag-graph v1\ndims 0\nnode 0 -\nnode 1 -\nedge 0 1 # note\n",
                5,
            ),
        ] {
            let err = read_graph(text.as_bytes()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{text:?}");
            assert_eq!(err.to_string(), format!("line {line}: trailing fields"));
        }
    }

    /// Everything `f64::from_str` accepts beyond finite numbers is a typed
    /// parse error naming the line.
    #[test]
    fn non_finite_numeric_attributes_are_rejected() {
        for bad in ["nan", "NaN", "inf", "-inf", "infinity", "1e999"] {
            let text = format!("csag-graph v1\ndims 2\nnode 0 a 1 {bad}\n");
            let err = read_graph(text.as_bytes()).unwrap_err().to_string();
            assert_eq!(err, "line 3: bad numeric attribute", "{bad}");
        }
    }

    /// A `dims` record is only believed as far as the rows back it up: a
    /// node row of another width is a typed error naming its line (never a
    /// row padded out to the claimed width), and a file without nodes reads
    /// without allocating what `dims` claims.
    #[test]
    fn node_rows_must_match_the_dims_record() {
        let huge = "18446744073709551615";
        // (dims, each node's "tokens numbers", the refusal after `line N: `)
        let cases: [(&str, &[&str], &str); 4] = [
            (
                huge,
                &["-"],
                "node 0 has 0 numerical attributes, expected 18446744073709551615",
            ),
            (
                "4000000000",
                &["- 1", "- 2"],
                "node 0 has 1 numerical attributes, expected 4000000000",
            ),
            (
                "2",
                &["a 1 2", "b 3"],
                "node 1 has 1 numerical attributes, expected 2",
            ),
            (
                "1",
                &["a 1 2"],
                "node 0 has 2 numerical attributes, expected 1",
            ),
        ];
        for (dims, rows, want) in cases {
            let bad = want[5..6].parse::<usize>().unwrap();
            let mut text = format!("csag-graph v1\ndims {dims}\n");
            for (i, row) in rows.iter().enumerate() {
                text += &format!("node {i} {row}\n");
            }
            let err = read_graph(text.as_bytes()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert_eq!(err.to_string(), format!("line {}: {want}", 3 + bad));
        }

        let empty = read_graph(format!("csag-graph v1\ndims {huge}\n").as_bytes()).unwrap();
        assert_eq!((empty.n(), empty.attrs().dims()), (0, usize::MAX));
        assert_eq!(empty.attrs().dim_range(7), (0.0, 0.0));
    }

    /// A token field holding an empty token, or nothing but `-` tokens,
    /// is refused with its line. Such a field used to read, and then write
    /// back as a line the reader refuses (`,` as
    /// `node 0  0.5 1`, `-,-` as `node 0 - 0.5 1`: no tokens).
    #[test]
    fn token_fields_the_writer_cannot_repeat_are_refused() {
        for (field, why) in [
            (",", "empty token in `,`"),
            ("a,,b", "empty token in `a,,b`"),
            ("a,", "empty token in `a,`"),
            (",a", "empty token in `,a`"),
            ("-,-", "only `-` tokens in `-,-`"),
        ] {
            let text = format!("csag-graph v1\ndims 2\nnode 0 {field} 0.5 1\n");
            let err = read_graph(text.as_bytes()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{field}");
            assert_eq!(err.to_string(), format!("line 3: {why}"));
        }
        let kept = read_graph("csag-graph v1\ndims 0\nnode 0 -,a\n".as_bytes()).unwrap();
        assert_eq!(
            kept.tokens(0).len(),
            2,
            "`-` beside another token is a token"
        );
    }

    /// A builder takes any token; the writer refuses, before writing a
    /// byte, the ones the reader would not read back as themselves.
    #[test]
    fn unwritable_builder_tokens_are_refused_before_writing() {
        for bad in ["", "a,b", "new york", "tab\there", "nbsp\u{a0}", "-"] {
            let mut b = GraphBuilder::new(1);
            b.add_node(&["ok"], &[0.0]);
            b.add_node(&["ok", bad][usize::from(bad == "-")..], &[1.0]);
            let g = b.build().unwrap();
            let mut out = Vec::new();
            let err = write_graph(&g, &mut out).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{bad:?}");
            let want = format!("node 1 holds the token {bad:?}, which the text format cannot hold");
            assert_eq!(err.to_string(), want);
            assert!(out.is_empty(), "{bad:?}: wrote {} bytes", out.len());
        }

        let mut b = GraphBuilder::new(0);
        b.add_node(&["-", "a"], &[]);
        b.add_node(&["#", "\u{0}", "é"], &[]);
        let g = b.build().unwrap();
        let mut out = Vec::new();
        write_graph(&g, &mut out).unwrap();
        let back = read_graph(&out[..]).unwrap();
        for v in 0..2 {
            let names = |g: &AttributedGraph| -> Vec<String> {
                let mut ns: Vec<String> = g
                    .tokens(v)
                    .iter()
                    .map(|&t| g.interner().name(t).unwrap().to_owned())
                    .collect();
                ns.sort();
                ns
            };
            assert_eq!(names(&back), names(&g));
        }
    }

    #[test]
    fn file_round_trip() {
        let g = sample();
        let dir = std::env::temp_dir().join("csag_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.txt");
        save_graph(&g, &path).unwrap();
        let g2 = load_graph(&path).unwrap();
        assert_eq!(g2.n(), 3);
        std::fs::remove_file(&path).ok();
    }
}
