//! TCP client for the vr-serve daemon.
//!
//! Speaks the versioned handshake of [`crate::wire`], then pipelines
//! requests correlated by client-chosen ids. [`Client`] is the simple
//! lock-step form; [`Client::into_split`] yields independent send and
//! receive halves so a load generator can keep the daemon's window
//! full while a second thread drains responses.

use std::fmt;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};

use vr_comm::frame::{read_frame, write_frame, Frame, StreamError};
use vr_system::ExperimentConfig;

use crate::wire::{
    self, DecodeError, StatsReply, Welcome, WireResponse, MAX_WIRE_FRAME, WIRE_VERSION,
};

/// Everything that can go wrong on the client side of the wire.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure (connect, clone, timeout setup).
    Io(io::Error),
    /// Framing-layer failure (closed, truncated, CRC, oversized).
    Stream(StreamError),
    /// The frame arrived intact but its payload didn't parse.
    Decode(DecodeError),
    /// The server refused the handshake over a version skew.
    VersionMismatch { server: u16, client: u16 },
    /// The server refused the connection over its budget.
    Busy { message: String },
    /// The server sent a frame kind we didn't expect here.
    Protocol(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io error: {e}"),
            ClientError::Stream(e) => write!(f, "stream error: {e}"),
            ClientError::Decode(e) => write!(f, "decode error: {e}"),
            ClientError::VersionMismatch { server, client } => write!(
                f,
                "wire version mismatch: server speaks {server}, client speaks {client}"
            ),
            ClientError::Busy { message } => write!(f, "server busy: {message}"),
            ClientError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<StreamError> for ClientError {
    fn from(e: StreamError) -> Self {
        ClientError::Stream(e)
    }
}

impl From<DecodeError> for ClientError {
    fn from(e: DecodeError) -> Self {
        ClientError::Decode(e)
    }
}

/// A connected, handshaken client: the two halves of
/// [`Client::into_split`], used in lock-step.
#[derive(Debug)]
pub struct Client {
    sender: ClientSender,
    receiver: ClientReceiver,
    welcome: Welcome,
}

impl Client {
    /// Connects, sends HELLO, and interprets the server's first frame:
    /// WELCOME on success, a typed error ([`ClientError::Busy`] /
    /// [`ClientError::VersionMismatch`]) on refusal.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // An over-budget server refuses without ever reading the HELLO,
        // so this write can hit a broken pipe while a typed refusal sits
        // in our receive buffer — read first, surface the write error
        // only if the read fails too.
        let hello_sent = write_frame(&mut stream, wire::KIND_HELLO, 0, &wire::encode_hello());
        let frame = match read_frame(&mut stream, MAX_WIRE_FRAME) {
            Ok(frame) => frame,
            Err(read_err) => {
                hello_sent?;
                return Err(read_err.into());
            }
        };
        let welcome = match frame.kind {
            wire::KIND_WELCOME => wire::decode_welcome(&frame.payload)?,
            wire::KIND_ERROR => {
                let info = wire::decode_error(&frame.payload)?;
                return Err(match info.code {
                    wire::ERR_BUSY => ClientError::Busy {
                        message: info.message,
                    },
                    _ => ClientError::VersionMismatch {
                        server: info.version,
                        client: WIRE_VERSION,
                    },
                });
            }
            kind => {
                return Err(ClientError::Protocol(format!(
                    "expected WELCOME, got frame kind {kind:#04x}"
                )))
            }
        };
        Ok(Client {
            sender: ClientSender {
                stream: stream.try_clone()?,
                seq: 0,
                next_id: 1,
            },
            receiver: ClientReceiver { stream },
            welcome,
        })
    }

    /// The server's handshake parameters (shard count, window).
    pub fn welcome(&self) -> &Welcome {
        &self.welcome
    }

    /// Submits a frame request without waiting; returns the id the
    /// response will carry. Responses may come back out of order.
    pub fn submit(&mut self, config: &ExperimentConfig) -> Result<u64, ClientError> {
        self.sender.submit(config)
    }

    /// Blocks for the next RESPONSE frame.
    pub fn recv_response(&mut self) -> Result<(u64, WireResponse), ClientError> {
        self.receiver.recv_response()
    }

    /// Submit-then-wait convenience for lock-step callers. The
    /// connection must have no other requests in flight.
    pub fn request_blocking(
        &mut self,
        config: &ExperimentConfig,
    ) -> Result<WireResponse, ClientError> {
        let id = self.submit(config)?;
        let (got, resp) = self.recv_response()?;
        if got != id {
            return Err(ClientError::Protocol(format!(
                "response id {got} does not match request id {id}"
            )));
        }
        Ok(resp)
    }

    /// Fetches per-shard counters and the imbalance metric. Call with
    /// no requests in flight on this connection — a pending RESPONSE
    /// would interleave with the STATS_REPLY.
    pub fn stats(&mut self) -> Result<StatsReply, ClientError> {
        self.sender.send(wire::KIND_STATS, &[])?;
        let frame = self.receiver.recv(wire::KIND_STATS_REPLY, "STATS_REPLY")?;
        Ok(wire::decode_stats_reply(&frame.payload)?)
    }

    /// Splits into independent send/receive halves so one thread can
    /// keep the daemon's window full while another drains responses.
    /// The socket was cloned at connect, so this cannot fail.
    pub fn into_split(self) -> Result<(ClientSender, ClientReceiver), ClientError> {
        Ok((self.sender, self.receiver))
    }
}

/// The write half of a split client.
#[derive(Debug)]
pub struct ClientSender {
    stream: TcpStream,
    seq: u32,
    next_id: u64,
}

impl ClientSender {
    /// Writes one frame under the next sequence number.
    fn send(&mut self, kind: u8, payload: &[u8]) -> Result<(), ClientError> {
        write_frame(&mut self.stream, kind, self.seq, payload)?;
        self.seq = self.seq.wrapping_add(1);
        Ok(())
    }

    /// Submits a frame request; returns its correlation id.
    pub fn submit(&mut self, config: &ExperimentConfig) -> Result<u64, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        self.send(wire::KIND_REQUEST, &wire::encode_request(id, config))?;
        Ok(id)
    }
}

/// The read half of a split client.
#[derive(Debug)]
pub struct ClientReceiver {
    stream: TcpStream,
}

impl ClientReceiver {
    /// Reads the next frame, which must be of `kind` (`name` in the
    /// error otherwise).
    fn recv(&mut self, kind: u8, name: &str) -> Result<Frame, ClientError> {
        let frame = read_frame(&mut self.stream, MAX_WIRE_FRAME)?;
        if frame.kind != kind {
            return Err(ClientError::Protocol(format!(
                "expected {name}, got frame kind {:#04x}",
                frame.kind
            )));
        }
        Ok(frame)
    }

    /// Blocks for the next RESPONSE frame.
    pub fn recv_response(&mut self) -> Result<(u64, WireResponse), ClientError> {
        let frame = self.recv(wire::KIND_RESPONSE, "RESPONSE")?;
        Ok(wire::decode_response(&frame.payload)?)
    }
}
