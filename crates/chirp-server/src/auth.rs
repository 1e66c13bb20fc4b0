//! Authentication: turning a connection into a virtual-user subject.
//!
//! A client may attempt any number of methods in any order; the first
//! success fixes the connection's subject as `method:name` and further
//! attempts are refused (one set of credentials per session, which the
//! paper notes "simplifies troubleshooting and file ownership").
//!
//! Methods:
//!
//! * **hostname** — identity is the resolved name of the connecting
//!   host (pluggable resolver; reverse DNS in the original system).
//! * **unix** — a challenge/response through the local filesystem: the
//!   server asks the client to create a server-chosen file in a shared
//!   directory and infers the client's identity from the created
//!   file's owner uid. Proves the peer holds a local account.
//! * **key** (any other method label, e.g. `globus`, `kerberos`) — a
//!   cryptographic challenge/response standing in for the GSI and
//!   Kerberos methods of the original system. The server issues a
//!   random nonce; the client answers with `<key_id>:<hex_mac>` where
//!   the MAC is HMAC-SHA256 of the domain-separated handshake
//!   transcript under a key registered in the server's
//!   [`KeyRing`](crate::config::KeyRing). The key never crosses the
//!   wire, each nonce verifies exactly once (replays fail), and
//!   rotating a ring entry invalidates the old key immediately. The
//!   subject carries whatever free-form name (e.g. an X.509 DN) was
//!   registered with the key — see DESIGN.md §4 for why this
//!   substitution preserves the property under test: free-form
//!   external identities flowing into ACL checks.

use std::net::IpAddr;
use std::path::{Component, Path, PathBuf};

use chirp_proto::crypto::{auth_mac, constant_time_eq, hex};
use chirp_proto::{ChirpError, ChirpResult};
use rand::RngCore;

use crate::config::ServerConfig;

/// Result of one authentication attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuthOutcome {
    /// Authentication succeeded; the connection's subject is fixed.
    Subject(String),
    /// The method needs another round: for `unix`, the client must
    /// create this file and retry with the path as its credential;
    /// for key methods, this is the nonce the client must MAC.
    Challenge(String),
}

/// Per-connection authentication state machine.
#[derive(Debug)]
pub struct Authenticator {
    peer_ip: IpAddr,
    pending_unix: Option<PendingUnix>,
    pending_key: Option<PendingKey>,
    fixed: Option<String>,
}

#[derive(Debug)]
struct PendingUnix {
    claimed_name: String,
    challenge_path: PathBuf,
}

#[derive(Debug)]
struct PendingKey {
    method: String,
    claimed_name: String,
    nonce_hex: String,
}

impl Authenticator {
    /// A fresh authenticator for a connection from `peer_ip`.
    pub fn new(peer_ip: IpAddr) -> Authenticator {
        Authenticator {
            peer_ip,
            pending_unix: None,
            pending_key: None,
            fixed: None,
        }
    }

    /// The subject fixed by a successful attempt, if any.
    pub fn subject(&self) -> Option<&str> {
        self.fixed.as_deref()
    }

    /// Process one `AUTH` request.
    ///
    /// Once a method has succeeded the subject is fixed: any further
    /// attempt — even with valid credentials for another identity —
    /// is refused as an invalid request.
    pub fn attempt(
        &mut self,
        config: &ServerConfig,
        method: &str,
        name: &str,
        credential: &str,
    ) -> ChirpResult<AuthOutcome> {
        if self.fixed.is_some() {
            return Err(ChirpError::InvalidRequest);
        }
        let outcome = match method {
            "hostname" => {
                let resolved = (config.hostname_resolver)(self.peer_ip);
                Ok(AuthOutcome::Subject(format!("hostname:{resolved}")))
            }
            "unix" => self.attempt_unix(config, name, credential),
            _ => self.attempt_key(config, method, name, credential),
        }?;
        if let AuthOutcome::Subject(subject) = &outcome {
            self.fixed = Some(subject.clone());
        }
        Ok(outcome)
    }

    #[allow(
        clippy::disallowed_methods,
        reason = "the challenge file lives in the challenge directory, outside the export"
    )]
    fn attempt_unix(
        &mut self,
        config: &ServerConfig,
        name: &str,
        credential: &str,
    ) -> ChirpResult<AuthOutcome> {
        let dir = config
            .unix_challenge_dir
            .as_ref()
            .ok_or(ChirpError::NotSupported)?;
        if credential.is_empty() {
            // Phase one: issue a challenge.
            let mut rng = rand::thread_rng();
            let token = format!("chirp-challenge-{:016x}", rng.next_u64());
            let path = dir.join(&token);
            self.pending_unix = Some(PendingUnix {
                claimed_name: name.to_string(),
                challenge_path: path.clone(),
            });
            return Ok(AuthOutcome::Challenge(path.to_string_lossy().into_owned()));
        }
        // Phase two: verify the touched file. The pending challenge is
        // consumed up front so a failed round cannot be retried, and
        // the presented path must be free of `..` components — the
        // server only ever issues single-filename challenges inside
        // the configured directory, so a traversing path is forged.
        let pending = self.pending_unix.take().ok_or(ChirpError::AuthFailed)?;
        if Path::new(credential)
            .components()
            .any(|c| matches!(c, Component::ParentDir))
        {
            return Err(ChirpError::AuthFailed);
        }
        if pending.claimed_name != name || pending.challenge_path.to_string_lossy() != credential {
            return Err(ChirpError::AuthFailed);
        }
        let meta = std::fs::metadata(&pending.challenge_path).map_err(|_| ChirpError::AuthFailed);
        let _ = std::fs::remove_file(&pending.challenge_path);
        let meta = meta?;
        let uid = file_owner_uid(&meta);
        // Without root we cannot consult the password database, so the
        // virtual identity is the uid itself unless the claimed name is
        // the matching `uid<N>` form. Identity stays fully virtual
        // either way.
        let derived = format!("uid{uid}");
        if name != derived && !name.is_empty() {
            return Err(ChirpError::AuthFailed);
        }
        Ok(AuthOutcome::Subject(format!("unix:{derived}")))
    }

    /// Challenge–response over a registered key. Phase one (empty
    /// credential) issues a random nonce; phase two expects
    /// `<key_id>:<hex_mac>` where the MAC covers the handshake
    /// transcript (method, claimed name, key id, nonce) under the
    /// ring key whose fingerprint is `key_id`.
    fn attempt_key(
        &mut self,
        config: &ServerConfig,
        method: &str,
        name: &str,
        credential: &str,
    ) -> ChirpResult<AuthOutcome> {
        if credential.is_empty() {
            // Phase one: issue a fresh nonce. Issuing a new challenge
            // discards any prior pending one, so a client cannot bank
            // nonces.
            let mut rng = rand::thread_rng();
            let mut nonce = [0u8; 16];
            rng.fill_bytes(&mut nonce);
            let nonce_hex = hex(&nonce);
            self.pending_key = Some(PendingKey {
                method: method.to_string(),
                claimed_name: name.to_string(),
                nonce_hex: nonce_hex.clone(),
            });
            return Ok(AuthOutcome::Challenge(nonce_hex));
        }
        // Phase two. The pending nonce is consumed before any
        // verification: a replayed response — even a previously valid
        // one — finds no challenge outstanding and fails.
        let pending = self.pending_key.take().ok_or(ChirpError::AuthFailed)?;
        if pending.method != method || pending.claimed_name != name {
            return Err(ChirpError::AuthFailed);
        }
        let (key_id, mac_hex) = credential.split_once(':').ok_or(ChirpError::AuthFailed)?;
        let cred = config
            .keys
            .lookup(method, key_id)
            .ok_or(ChirpError::AuthFailed)?;
        if !name.is_empty() && name != cred.subject_name {
            return Err(ChirpError::AuthFailed);
        }
        let expected = auth_mac(&cred.key, method, name, key_id, &pending.nonce_hex);
        if !constant_time_eq(expected.as_bytes(), mac_hex.as_bytes()) {
            return Err(ChirpError::AuthFailed);
        }
        Ok(AuthOutcome::Subject(format!(
            "{}:{}",
            cred.method, cred.subject_name
        )))
    }
}

fn file_owner_uid(meta: &std::fs::Metadata) -> u32 {
    #[cfg(unix)]
    {
        use std::os::unix::fs::MetadataExt;
        meta.uid()
    }
    #[cfg(not(unix))]
    {
        let _ = meta;
        0
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "the tests touch challenge files the way a local user would"
)]
mod tests {
    use super::*;
    use chirp_proto::crypto::key_fingerprint;
    use chirp_proto::testutil::TempDir;

    const ALICE_KEY: &[u8] = b"alice-key-material-0123456789abcdef";
    const BOB_KEY: &[u8] = b"bob-key-material-fedcba9876543210";

    fn config() -> ServerConfig {
        ServerConfig::localhost("/tmp/unused", "owner")
            .with_key("globus", "/O=NotreDame/CN=alice", ALICE_KEY)
            .with_key("kerberos", "bob@ND.EDU", BOB_KEY)
    }

    fn auth() -> Authenticator {
        Authenticator::new("127.0.0.1".parse().unwrap())
    }

    /// Run the two-round key handshake with `key`, returning the
    /// outcome of the response round.
    fn handshake(
        a: &mut Authenticator,
        cfg: &ServerConfig,
        method: &str,
        name: &str,
        key: &[u8],
    ) -> ChirpResult<AuthOutcome> {
        let nonce = match a.attempt(cfg, method, name, "")? {
            AuthOutcome::Challenge(n) => n,
            other => panic!("expected challenge, got {other:?}"),
        };
        let key_id = key_fingerprint(key);
        let mac = auth_mac(key, method, name, &key_id, &nonce);
        a.attempt(cfg, method, name, &format!("{key_id}:{mac}"))
    }

    #[test]
    fn hostname_uses_resolver_not_claim() {
        let out = auth()
            .attempt(&config(), "hostname", "spoofed.example.com", "")
            .unwrap();
        assert_eq!(out, AuthOutcome::Subject("hostname:localhost".into()));
    }

    #[test]
    fn key_handshake_grants_registered_subject() {
        let cfg = config();
        let mut a = auth();
        let out = handshake(&mut a, &cfg, "globus", "", ALICE_KEY).unwrap();
        assert_eq!(
            out,
            AuthOutcome::Subject("globus:/O=NotreDame/CN=alice".into())
        );
        assert_eq!(a.subject(), Some("globus:/O=NotreDame/CN=alice"));
    }

    #[test]
    fn key_handshake_rejects_wrong_key_and_method() {
        let cfg = config();
        // MAC under a key the ring does not hold for this method.
        assert_eq!(
            handshake(&mut auth(), &cfg, "globus", "", BOB_KEY).unwrap_err(),
            ChirpError::AuthFailed
        );
        // Right key, wrong method label: transcript and lookup differ.
        assert_eq!(
            handshake(&mut auth(), &cfg, "kerberos", "", ALICE_KEY).unwrap_err(),
            ChirpError::AuthFailed
        );
    }

    #[test]
    fn key_handshake_rejects_forged_mac() {
        let cfg = config();
        let mut a = auth();
        let nonce = match a.attempt(&cfg, "globus", "", "").unwrap() {
            AuthOutcome::Challenge(n) => n,
            other => panic!("expected challenge, got {other:?}"),
        };
        let key_id = key_fingerprint(ALICE_KEY);
        // Right key id, attacker-guessed MAC.
        let forged = auth_mac(b"not-the-key", "globus", "", &key_id, &nonce);
        assert_eq!(
            a.attempt(&cfg, "globus", "", &format!("{key_id}:{forged}"))
                .unwrap_err(),
            ChirpError::AuthFailed
        );
    }

    #[test]
    fn key_handshake_rejects_replayed_nonce() {
        let cfg = config();
        let mut a = auth();
        let nonce = match a.attempt(&cfg, "globus", "", "").unwrap() {
            AuthOutcome::Challenge(n) => n,
            other => panic!("expected challenge, got {other:?}"),
        };
        let key_id = key_fingerprint(ALICE_KEY);
        let mac = auth_mac(ALICE_KEY, "globus", "", &key_id, &nonce);
        let credential = format!("{key_id}:{mac}");
        assert!(a.attempt(&cfg, "globus", "", &credential).is_ok());

        // Replaying the captured (valid!) response on a fresh
        // connection fails: no challenge is outstanding there.
        let mut fresh = auth();
        assert_eq!(
            fresh.attempt(&cfg, "globus", "", &credential).unwrap_err(),
            ChirpError::AuthFailed
        );

        // And a failed response consumes the nonce: retrying the same
        // response after a failure also finds nothing pending.
        let mut b = auth();
        let nonce_b = match b.attempt(&cfg, "globus", "", "").unwrap() {
            AuthOutcome::Challenge(n) => n,
            other => panic!("expected challenge, got {other:?}"),
        };
        assert!(b.attempt(&cfg, "globus", "", "garbage:mac").is_err());
        let mac_b = auth_mac(ALICE_KEY, "globus", "", &key_id, &nonce_b);
        assert_eq!(
            b.attempt(&cfg, "globus", "", &format!("{key_id}:{mac_b}"))
                .unwrap_err(),
            ChirpError::AuthFailed
        );
    }

    #[test]
    fn key_handshake_rejects_rotated_out_key() {
        let cfg = config();
        let mut a = auth();
        let nonce = match a.attempt(&cfg, "globus", "", "").unwrap() {
            AuthOutcome::Challenge(n) => n,
            other => panic!("expected challenge, got {other:?}"),
        };
        // Key rotates while the handshake is in flight.
        assert!(cfg
            .keys
            .rotate("globus", "/O=NotreDame/CN=alice", b"new-key"));
        let old_id = key_fingerprint(ALICE_KEY);
        let mac = auth_mac(ALICE_KEY, "globus", "", &old_id, &nonce);
        assert_eq!(
            a.attempt(&cfg, "globus", "", &format!("{old_id}:{mac}"))
                .unwrap_err(),
            ChirpError::AuthFailed
        );
        // The new key verifies.
        let mut b = auth();
        assert!(handshake(&mut b, &cfg, "globus", "", b"new-key").is_ok());
    }

    #[test]
    fn key_handshake_rejects_mismatched_claimed_name() {
        let cfg = config();
        assert!(handshake(
            &mut auth(),
            &cfg,
            "globus",
            "/O=Elsewhere/CN=eve",
            ALICE_KEY
        )
        .is_err());
        // Matching claim is fine.
        assert!(handshake(
            &mut auth(),
            &cfg,
            "globus",
            "/O=NotreDame/CN=alice",
            ALICE_KEY
        )
        .is_ok());
    }

    #[test]
    fn key_response_must_match_challenged_name_and_method() {
        let cfg = config();
        let mut a = auth();
        let nonce = match a.attempt(&cfg, "globus", "", "").unwrap() {
            AuthOutcome::Challenge(n) => n,
            other => panic!("expected challenge, got {other:?}"),
        };
        let key_id = key_fingerprint(ALICE_KEY);
        // MAC is honest, but the response names a different identity
        // than the challenge round did.
        let mac = auth_mac(
            ALICE_KEY,
            "globus",
            "/O=NotreDame/CN=alice",
            &key_id,
            &nonce,
        );
        assert_eq!(
            a.attempt(
                &cfg,
                "globus",
                "/O=NotreDame/CN=alice",
                &format!("{key_id}:{mac}")
            )
            .unwrap_err(),
            ChirpError::AuthFailed
        );
    }

    #[test]
    fn second_method_after_success_is_refused() {
        let cfg = config();
        let mut a = auth();
        assert!(a.attempt(&cfg, "hostname", "", "").is_ok());
        // Even a fully valid handshake for another identity is refused
        // once the subject is fixed — including its challenge round.
        assert_eq!(
            a.attempt(&cfg, "globus", "", "").unwrap_err(),
            ChirpError::InvalidRequest
        );
        assert_eq!(
            a.attempt(&cfg, "hostname", "", "").unwrap_err(),
            ChirpError::InvalidRequest
        );
        assert_eq!(a.subject(), Some("hostname:localhost"));
    }

    #[test]
    fn failed_attempts_do_not_fix_subject() {
        let cfg = config();
        let mut a = auth();
        assert!(handshake(&mut a, &cfg, "globus", "", BOB_KEY).is_err());
        assert_eq!(a.subject(), None);
        // Can still succeed afterwards.
        assert!(handshake(&mut a, &cfg, "globus", "", ALICE_KEY).is_ok());
    }

    #[test]
    fn unix_requires_configured_dir() {
        assert_eq!(
            auth().attempt(&config(), "unix", "uid0", "").unwrap_err(),
            ChirpError::NotSupported
        );
    }

    #[test]
    fn unix_challenge_round_trip() {
        let dir = TempDir::new();
        let mut cfg = config();
        cfg.unix_challenge_dir = Some(dir.path().to_path_buf());
        let mut a = auth();
        let me = format!("uid{}", current_uid());
        let challenge = match a.attempt(&cfg, "unix", &me, "").unwrap() {
            AuthOutcome::Challenge(p) => p,
            other => panic!("expected challenge, got {other:?}"),
        };
        std::fs::write(&challenge, b"").unwrap();
        let out = a.attempt(&cfg, "unix", &me, &challenge).unwrap();
        assert_eq!(out, AuthOutcome::Subject(format!("unix:{me}")));
        // Challenge file is consumed.
        assert!(!std::path::Path::new(&challenge).exists());
    }

    #[test]
    fn unix_fails_without_touch() {
        let dir = TempDir::new();
        let mut cfg = config();
        cfg.unix_challenge_dir = Some(dir.path().to_path_buf());
        let mut a = auth();
        let me = format!("uid{}", current_uid());
        let challenge = match a.attempt(&cfg, "unix", &me, "").unwrap() {
            AuthOutcome::Challenge(p) => p,
            other => panic!("expected challenge, got {other:?}"),
        };
        assert_eq!(
            a.attempt(&cfg, "unix", &me, &challenge).unwrap_err(),
            ChirpError::AuthFailed
        );
    }

    #[test]
    fn unix_rejects_traversing_challenge_path() {
        let dir = TempDir::new();
        let mut cfg = config();
        cfg.unix_challenge_dir = Some(dir.path().to_path_buf());
        let mut a = auth();
        let me = format!("uid{}", current_uid());
        let challenge = match a.attempt(&cfg, "unix", &me, "").unwrap() {
            AuthOutcome::Challenge(p) => p,
            other => panic!("expected challenge, got {other:?}"),
        };
        // A `..`-bearing path that still *resolves* to the issued
        // challenge file must be rejected before any filesystem
        // access: the server compares literally and refuses parent
        // components outright.
        let file = Path::new(&challenge).file_name().unwrap().to_str().unwrap();
        let sneaky = format!("{}/subdir/../{}", dir.path().display(), file);
        std::fs::write(&challenge, b"").unwrap();
        assert_eq!(
            a.attempt(&cfg, "unix", &me, &sneaky).unwrap_err(),
            ChirpError::AuthFailed
        );
        // An absolute traversal out of the challenge dir fails too
        // (fresh round: the failed attempt consumed the last one).
        let challenge2 = match a.attempt(&cfg, "unix", &me, "").unwrap() {
            AuthOutcome::Challenge(p) => p,
            other => panic!("expected challenge, got {other:?}"),
        };
        let _ = challenge2;
        assert_eq!(
            a.attempt(&cfg, "unix", &me, "/etc/../etc/passwd")
                .unwrap_err(),
            ChirpError::AuthFailed
        );
    }

    #[test]
    fn unix_rejects_identity_mismatch() {
        let dir = TempDir::new();
        let mut cfg = config();
        cfg.unix_challenge_dir = Some(dir.path().to_path_buf());
        let mut a = auth();
        let claim = "uid999999";
        let challenge = match a.attempt(&cfg, "unix", claim, "").unwrap() {
            AuthOutcome::Challenge(p) => p,
            other => panic!("expected challenge, got {other:?}"),
        };
        std::fs::write(&challenge, b"").unwrap();
        if current_uid() != 999_999 {
            assert!(a.attempt(&cfg, "unix", claim, &challenge).is_err());
        }
    }

    fn current_uid() -> u32 {
        let dir = TempDir::new();
        let probe = dir.path().join("probe");
        std::fs::write(&probe, b"").unwrap();
        file_owner_uid(&std::fs::metadata(&probe).unwrap())
    }
}
