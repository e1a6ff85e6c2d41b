//! Plain-text token game I/O.
//!
//! Format (whitespace-separated, `#`-comments allowed):
//!
//! ```text
//! <n> <m>
//! <level> <token: 0|1>     (n lines, node i on the i-th line)
//! <u> <v>                  (m lines)
//! ```

use crate::game::TokenGame;
use std::io::{BufRead, Write};
use td_graph::{GraphBuilder, NodeId};

/// Errors while reading a game description.
#[derive(Debug)]
pub enum GameReadError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Syntax/semantic problem with a line number (1-based; 0 = global).
    Parse {
        /// Offending line.
        line: usize,
        /// Explanation.
        msg: String,
    },
}

impl std::fmt::Display for GameReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GameReadError::Io(e) => write!(f, "io error: {e}"),
            GameReadError::Parse { line, msg } => write!(f, "line {line}: {msg}"),
        }
    }
}

impl std::error::Error for GameReadError {}

impl From<std::io::Error> for GameReadError {
    fn from(e: std::io::Error) -> Self {
        GameReadError::Io(e)
    }
}

/// Writes a game in the text format.
pub fn write_game(game: &TokenGame, mut w: impl Write) -> std::io::Result<()> {
    writeln!(w, "{} {}", game.num_nodes(), game.graph().num_edges())?;
    for v in game.graph().nodes() {
        writeln!(w, "{} {}", game.level(v), game.has_token(v) as u8)?;
    }
    for (_, u, v) in game.graph().edge_list() {
        writeln!(w, "{} {}", u.0, v.0)?;
    }
    Ok(())
}

/// Reads a game in the text format.
pub fn read_game(r: impl BufRead) -> Result<TokenGame, GameReadError> {
    let mut tokens_of_line: Vec<(usize, Vec<u64>)> = Vec::new();
    for (lineno, line) in r.lines().enumerate() {
        let line = line?;
        let content = line.split('#').next().unwrap_or("").trim();
        if content.is_empty() {
            continue;
        }
        let nums: Result<Vec<u64>, _> = content.split_whitespace().map(|t| t.parse()).collect();
        match nums {
            Ok(v) => tokens_of_line.push((lineno + 1, v)),
            Err(e) => {
                return Err(GameReadError::Parse {
                    line: lineno + 1,
                    msg: format!("expected integers: {e}"),
                })
            }
        }
    }
    // Every node and edge takes a line, so the lines read bound what the
    // header may reserve.
    let body_lines = tokens_of_line.len().saturating_sub(1);
    let mut it = tokens_of_line.into_iter();
    let (hl, header) = it.next().ok_or(GameReadError::Parse {
        line: 0,
        msg: "empty input".into(),
    })?;
    if header.len() != 2 {
        return Err(GameReadError::Parse {
            line: hl,
            msg: "header must be '<n> <m>'".into(),
        });
    }
    let n = to_u32(header[0], hl, "node count")? as usize;
    let m = to_u32(header[1], hl, "edge count")? as usize;
    let mut level = Vec::with_capacity(n.min(body_lines));
    let mut token = Vec::with_capacity(n.min(body_lines));
    for _ in 0..n {
        let (l, row) = it.next().ok_or(GameReadError::Parse {
            line: 0,
            msg: "missing node lines".into(),
        })?;
        if row.len() != 2 || row[1] > 1 {
            return Err(GameReadError::Parse {
                line: l,
                msg: "node line must be '<level> <0|1>'".into(),
            });
        }
        level.push(to_u32(row[0], l, "level")?);
        token.push(row[1] == 1);
    }
    let mut b = GraphBuilder::with_capacity(n, m.min(body_lines - n));
    for _ in 0..m {
        let (l, row) = it.next().ok_or(GameReadError::Parse {
            line: 0,
            msg: "missing edge lines".into(),
        })?;
        if row.len() != 2 {
            return Err(GameReadError::Parse {
                line: l,
                msg: "edge line must be '<u> <v>'".into(),
            });
        }
        let (u, v) = (to_u32(row[0], l, "node id")?, to_u32(row[1], l, "node id")?);
        b.add_edge(NodeId(u), NodeId(v))
            .map_err(|e| GameReadError::Parse {
                line: l,
                msg: e.to_string(),
            })?;
    }
    if let Some((l, _)) = it.next() {
        return Err(GameReadError::Parse {
            line: l,
            msg: "trailing lines".into(),
        });
    }
    let graph = b.build().map_err(|e| GameReadError::Parse {
        line: 0,
        msg: e.to_string(),
    })?;
    TokenGame::new(graph, level, token).map_err(|e| GameReadError::Parse {
        line: 0,
        msg: e.to_string(),
    })
}

/// `x` as a `u32`, or a parse error naming `what` on `line`.
fn to_u32(x: u64, line: usize, what: &str) -> Result<u32, GameReadError> {
    u32::try_from(x).map_err(|_| GameReadError::Parse {
        line,
        msg: format!("{what} {x} does not fit in 32 bits"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_figure2() {
        let game = TokenGame::figure2();
        let mut buf = Vec::new();
        write_game(&game, &mut buf).unwrap();
        let game2 = read_game(&buf[..]).unwrap();
        assert_eq!(game.levels(), game2.levels());
        assert_eq!(game.tokens(), game2.tokens());
        assert_eq!(game.graph(), game2.graph());
    }

    #[test]
    fn rejects_malformed() {
        for text in [
            "",
            "2\n",                                    // bad header
            "2 1\n0 1\n",                             // missing node line
            "2 1\n0 0\n1 2\n0 1\n",                   // token flag 2
            "2 1\n0 0\n1 0\n",                        // missing edge
            "2 1\n0 0\n1 0\n0 1\n0 1\n",              // trailing line
            "2 1\n0 0\n5 0\n0 1\n",                   // non-adjacent levels
            "2 1\n0 1\n1 0\n4294967296 1\n",          // endpoint past u32
            "2 1\n4294967296 0\n4294967297 1\n0 1\n", // level past u32
            "18446744073709551615 0\n",               // node count past u32
            "100000000000 0\n",                       // node count past u32
            "4000000000 4000000000\n",                // counts the lines cannot fill
        ] {
            assert!(read_game(text.as_bytes()).is_err(), "{text:?}");
        }
    }

    #[test]
    fn accepts_comments() {
        let text = "# game\n2 1\n1 1 # top\n0 0\n1 0\n";
        let game = read_game(text.as_bytes()).unwrap();
        assert_eq!(game.token_count(), 1);
        assert_eq!(game.height(), 1);
    }
}
