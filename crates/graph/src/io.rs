//! Plain-text edge-list I/O.
//!
//! Format (whitespace-separated, `#`-comments allowed):
//!
//! ```text
//! # optional comments
//! <n> <m>
//! <u> <v>     (m lines, 0-based node ids)
//! ```

use crate::builder::GraphBuilder;
use crate::csr::CsrGraph;
use crate::ids::NodeId;
use std::io::{BufRead, Write};

/// Errors while reading an edge list.
#[derive(Debug)]
pub enum ReadError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Syntax or semantic problem, with a line number (1-based).
    Parse {
        /// Line number of the offending input.
        line: usize,
        /// Explanation.
        msg: String,
    },
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::Io(e) => write!(f, "io error: {e}"),
            ReadError::Parse { line, msg } => write!(f, "line {line}: {msg}"),
        }
    }
}

impl std::error::Error for ReadError {}

impl From<std::io::Error> for ReadError {
    fn from(e: std::io::Error) -> Self {
        ReadError::Io(e)
    }
}

/// Writes `g` as an edge list.
pub fn write_edge_list(g: &CsrGraph, mut w: impl Write) -> std::io::Result<()> {
    writeln!(w, "{} {}", g.num_nodes(), g.num_edges())?;
    for (_, u, v) in g.edge_list() {
        writeln!(w, "{} {}", u.0, v.0)?;
    }
    Ok(())
}

/// Reads an edge list produced by [`write_edge_list`] (or hand-written in
/// the same format).
pub fn read_edge_list(r: impl BufRead) -> Result<CsrGraph, ReadError> {
    let mut header: Option<(usize, usize)> = None;
    let mut builder: Option<GraphBuilder> = None;
    let mut edges_seen = 0usize;

    for (lineno, line) in r.lines().enumerate() {
        let lineno = lineno + 1;
        let line = line?;
        let content = line.split('#').next().unwrap_or("").trim();
        if content.is_empty() {
            continue;
        }
        let mut parts = content.split_whitespace();
        let a: u64 = parts
            .next()
            .unwrap()
            .parse()
            .map_err(|e| ReadError::Parse {
                line: lineno,
                msg: format!("expected integer: {e}"),
            })?;
        let b: u64 = parts
            .next()
            .ok_or_else(|| ReadError::Parse {
                line: lineno,
                msg: "expected two integers".into(),
            })?
            .parse()
            .map_err(|e| ReadError::Parse {
                line: lineno,
                msg: format!("expected integer: {e}"),
            })?;
        if parts.next().is_some() {
            return Err(ReadError::Parse {
                line: lineno,
                msg: "trailing tokens".into(),
            });
        }
        match (&header, &mut builder) {
            (None, _) => {
                let n = to_u32(a, lineno, "node count")? as usize;
                let m = to_u32(b, lineno, "edge count")? as usize;
                header = Some((n, m));
                // No reservation from the header: the edges must still be
                // read, and a bogus count must not allocate.
                builder = Some(GraphBuilder::new(n));
            }
            (Some((_, m)), Some(bld)) => {
                if edges_seen >= *m {
                    return Err(ReadError::Parse {
                        line: lineno,
                        msg: format!("more than the declared {m} edges"),
                    });
                }
                let (u, v) = (to_u32(a, lineno, "node id")?, to_u32(b, lineno, "node id")?);
                bld.add_edge(NodeId(u), NodeId(v))
                    .map_err(|e| ReadError::Parse {
                        line: lineno,
                        msg: e.to_string(),
                    })?;
                edges_seen += 1;
            }
            _ => unreachable!(),
        }
    }

    let (_, m) = header.ok_or(ReadError::Parse {
        line: 0,
        msg: "empty input".into(),
    })?;
    if edges_seen != m {
        return Err(ReadError::Parse {
            line: 0,
            msg: format!("declared {m} edges but found {edges_seen}"),
        });
    }
    builder.unwrap().build().map_err(|e| ReadError::Parse {
        line: 0,
        msg: e.to_string(),
    })
}

/// `x` as a `u32`, or a parse error naming `what` on `line`.
fn to_u32(x: u64, line: usize, what: &str) -> Result<u32, ReadError> {
    u32::try_from(x).map_err(|_| ReadError::Parse {
        line,
        msg: format!("{what} {x} does not fit in 32 bits"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::classic::petersen;

    #[test]
    fn roundtrip() {
        let g = petersen();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(&buf[..]).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn comments_and_blank_lines() {
        let text = "# a graph\n3 2\n\n0 1  # first\n1 2\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn rejects_wrong_counts() {
        let text = "3 2\n0 1\n";
        assert!(matches!(
            read_edge_list(text.as_bytes()),
            Err(ReadError::Parse { .. })
        ));
        let text = "3 1\n0 1\n1 2\n";
        assert!(matches!(
            read_edge_list(text.as_bytes()),
            Err(ReadError::Parse { .. })
        ));
    }

    #[test]
    fn rejects_garbage() {
        for text in [
            "",
            "x y\n",
            "2 1\n0 banana\n",
            "2 1\n0 1 9\n",
            "2 1\n0 0\n",
            "3 1\n4294967296 1\n",
            "18446744073709551615 0\n",
            "3 18446744073709551615\n0 1\n",
        ] {
            assert!(read_edge_list(text.as_bytes()).is_err(), "{text:?}");
        }
    }

    #[test]
    fn reports_line_numbers() {
        let text = "3 2\n0 1\n0 5\n";
        match read_edge_list(text.as_bytes()) {
            Err(ReadError::Parse { line, .. }) => assert_eq!(line, 3),
            other => panic!("expected parse error, got {other:?}"),
        }
    }
}
