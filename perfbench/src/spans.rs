//! Joins the client's and the server's ends of each request into four
//! consecutive span parts:
//!
//! * dispatch: client send → the server's first read of the request;
//! * head read: first → last read of the request;
//! * handler: last read → the first write of its answer;
//! * response: first write → the client's last byte.
//!
//! The parts telescope, so for every joined request they sum to its
//! client latency; [`Parts::coverage`] compares their means with the
//! mean latency of *all* client requests, which exposes requests the
//! join missed.
//!
//! HTTP requests join on (client port, ordinal on the connection). A
//! port can be reused by a later connection within one phase, so among
//! the server records with that key the join takes the first one read
//! after the client sent. Publishes join on (topic, ordinal) for the
//! read side and on the first `MSG` of the topic whose `seq` covers the
//! publish for the write side.

use crate::gen::{ms, ClientReq};
use crate::stats;
use crate::tracenet::Record;
use std::collections::HashMap;
use std::time::Instant;

/// Span parts of every joined request, ms.
#[derive(Debug, Default, Clone)]
pub struct Parts {
    pub dispatch: Vec<f64>,
    pub head_read: Vec<f64>,
    pub handler: Vec<f64>,
    pub response: Vec<f64>,
    /// Client latency (send → last byte) of every client request,
    /// joined or not.
    pub client: Vec<f64>,
}

impl Parts {
    fn push(
        &mut self,
        sent: Instant,
        first_read: Instant,
        last_read: Instant,
        write: Instant,
        done: Instant,
    ) {
        self.dispatch.push(ms(sent, first_read));
        self.head_read.push(ms(first_read, last_read));
        self.handler.push(ms(last_read, write));
        self.response.push(ms(write, done));
    }

    /// Requests joined.
    pub fn joined(&self) -> usize {
        self.dispatch.len()
    }

    /// Sum of the parts' means over the mean client latency (1.0 when
    /// every request joined).
    pub fn coverage(&self) -> f64 {
        let parts = stats::mean(&self.dispatch)
            + stats::mean(&self.head_read)
            + stats::mean(&self.handler)
            + stats::mean(&self.response);
        stats::ratio(parts, stats::mean(&self.client))
    }
}

/// The server's end of one HTTP request: first read, last read, first
/// write.
type ServerEnd = (Instant, Instant, Instant);

/// Joins HTTP client requests with the server's records.
pub fn join_http(client: &[ClientReq], server: &[Record]) -> Parts {
    let mut by_key: HashMap<(u16, u64), Vec<ServerEnd>> = HashMap::new();
    for r in server {
        if let Record::Http {
            port,
            ordinal,
            first_read,
            last_read,
            first_write,
        } = *r
        {
            by_key
                .entry((port, ordinal))
                .or_default()
                .push((first_read, last_read, first_write));
        }
    }
    for v in by_key.values_mut() {
        v.sort();
    }
    let mut parts = Parts::default();
    for c in client {
        parts.client.push(ms(c.sent, c.done));
        let Some(cands) = by_key.get(&(c.port, c.ordinal)) else {
            continue;
        };
        let i = cands.partition_point(|&(first_read, _, _)| first_read < c.sent);
        if let Some(&(first_read, last_read, first_write)) = cands.get(i) {
            if first_write <= c.done {
                parts.push(c.sent, first_read, last_read, first_write, c.done);
            }
        }
    }
    parts
}

/// The client's view of one publish.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientPub {
    pub topic: String,
    pub ordinal: u64,
    pub sent: Instant,
    /// When the subscriber received the `MSG` covering it.
    pub done: Instant,
    /// That `MSG`'s seq.
    pub seq: u64,
}

/// Joins publishes with the server's read and `MSG` records.
pub fn join_pubsub(client: &[ClientPub], server: &[Record]) -> Parts {
    let mut reads: HashMap<(&str, u64), (Instant, Instant)> = HashMap::new();
    let mut msgs: HashMap<(&str, u64), Instant> = HashMap::new();
    for r in server {
        match r {
            Record::Pub {
                topic,
                ordinal,
                first_read,
                last_read,
            } => {
                reads.insert((topic, *ordinal), (*first_read, *last_read));
            }
            Record::Msg { topic, seq, at } => {
                msgs.entry((topic, *seq)).or_insert(*at);
            }
            Record::Http { .. } => {}
        }
    }
    let mut parts = Parts::default();
    for c in client {
        parts.client.push(ms(c.sent, c.done));
        let (Some(&(first_read, last_read)), Some(&write)) = (
            reads.get(&(c.topic.as_str(), c.ordinal)),
            msgs.get(&(c.topic.as_str(), c.seq)),
        ) else {
            continue;
        };
        parts.push(c.sent, first_read, last_read, write, c.done);
    }
    parts
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn close(got: &[f64], want: &[f64]) {
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(want) {
            assert!((g - w).abs() < 1e-9, "{got:?} != {want:?}");
        }
    }

    #[test]
    fn http_join_sums_to_client_latency_and_survives_port_reuse() {
        let t = Instant::now();
        let at = |us| t + Duration::from_micros(us);
        let server = vec![
            // First connection on port 7, request 0.
            Record::Http {
                port: 7,
                ordinal: 0,
                first_read: at(110),
                last_read: at(130),
                first_write: at(200),
            },
            // A later connection reusing port 7.
            Record::Http {
                port: 7,
                ordinal: 0,
                first_read: at(1_100),
                last_read: at(1_120),
                first_write: at(1_500),
            },
        ];
        let client = vec![
            ClientReq {
                port: 7,
                ordinal: 0,
                sent: at(1_000),
                done: at(1_600),
            },
            ClientReq {
                port: 7,
                ordinal: 0,
                sent: at(100),
                done: at(260),
            },
            // Never seen by the server: counts in the client mean only.
            ClientReq {
                port: 9,
                ordinal: 0,
                sent: at(0),
                done: at(800),
            },
        ];
        let p = join_http(&client, &server);
        assert_eq!(p.joined(), 2);
        close(&p.dispatch, &[0.1, 0.01]);
        close(&p.head_read, &[0.02, 0.02]);
        close(&p.handler, &[0.38, 0.07]);
        close(&p.response, &[0.1, 0.06]);
        for i in 0..2 {
            let sum = p.dispatch[i] + p.head_read[i] + p.handler[i] + p.response[i];
            assert!((sum - p.client[i]).abs() < 1e-9);
        }
        // Joined parts average (0.6 + 0.16) / 2 = 0.38 ms against a
        // client mean of (0.6 + 0.16 + 0.8) / 3 = 0.52 ms: the missed
        // join shows as coverage below one.
        assert!((p.coverage() - 0.38 / 0.52).abs() < 1e-9);
    }

    #[test]
    fn pubsub_join_uses_the_covering_message() {
        let t = Instant::now();
        let at = |us| t + Duration::from_micros(us);
        let server = vec![
            Record::Pub {
                topic: "t0".into(),
                ordinal: 1,
                first_read: at(10),
                last_read: at(12),
            },
            Record::Pub {
                topic: "t0".into(),
                ordinal: 2,
                first_read: at(12),
                last_read: at(15),
            },
            // Publishes 1 and 2 coalesced into one round: seq 2.
            Record::Msg {
                topic: "t0".into(),
                seq: 2,
                at: at(40),
            },
        ];
        let pubs = |ordinal, sent| ClientPub {
            topic: "t0".into(),
            ordinal,
            sent: at(sent),
            done: at(70),
            seq: 2,
        };
        let p = join_pubsub(&[pubs(1, 0), pubs(2, 5)], &server);
        assert_eq!(p.joined(), 2);
        close(&p.dispatch, &[0.01, 0.007]);
        close(&p.handler, &[0.028, 0.025]);
        close(&p.response, &[0.03, 0.03]);
        assert!((p.coverage() - 1.0).abs() < 1e-9);
    }
}
