//! Toy public-key session handshake.
//!
//! The collection tunnel "is done using public-key authentication through
//! an OpenSSH tunnel" (§3.5). We model the *protocol flow* — key exchange,
//! challenge, proof, verification — with a Diffie–Hellman-shaped exchange
//! over a 61-bit Mersenne-prime field and MD5 as the proof MAC.
//!
//! Every attempt runs all four messages: a fresh nonce, the client's proof
//! and the server's check of it against the secret it derived on its own
//! side. Only the key exchange is memoized: a key pair never changes, so
//! each side derives its shared secret with a given peer once
//! ([`KeyPair::shared_secret`]) and every later session reuses it. A wrong
//! key or a wrong secret is still rejected on every attempt.
//!
//! **This is NOT cryptography.** The field is laughably small and MD5 is
//! broken; the module exists so the simulated collector performs the same
//! message round-trips (and failure modes: wrong key → rejected session) as
//! the real pipeline, with deterministic, dependency-free arithmetic.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::ops::BitXor;

use frostlab_compress::md5::md5;
use frostlab_simkern::rng::Rng;

/// The field prime: 2⁶¹ − 1 (Mersenne).
pub const P: u64 = (1 << 61) - 1;
/// Generator.
pub const G: u64 = 5;

/// Modular multiplication of two reduced values (`a, b < P`). Since
/// 2⁶¹ ≡ 1 (mod P), the 122-bit product folds to its low 61 bits plus
/// the bits above them; two folds and one compare replace a `u128 %`.
fn mul_mod(a: u64, b: u64) -> u64 {
    debug_assert!(a < P && b < P, "mul_mod takes reduced operands");
    let x = u128::from(a) * u128::from(b);
    // x < 2¹²², so the high part fits in 61 bits and the sum in 62.
    let folded = (x as u64 & P) + (x >> 61) as u64;
    // folded ≤ 2P, so this is at most P.
    let r = (folded & P) + (folded >> 61);
    if r == P {
        0
    } else {
        r
    }
}

/// Modular exponentiation. Each bit's multiply runs and a select keeps
/// it, so the exponent's random bits cost no mispredicted branches.
pub fn pow_mod(mut base: u64, mut exp: u64) -> u64 {
    let mut acc = 1u64;
    base %= P;
    while exp > 0 {
        let product = mul_mod(acc, base);
        acc = if exp & 1 == 1 { product } else { acc };
        base = mul_mod(base, base);
        exp >>= 1;
    }
    acc
}

/// A secret exponent, with the shared secrets it has derived so far,
/// keyed by the peer's public value. The exponent never changes, so an
/// entry stays true. A different exponent is a new secret with an empty
/// memo: `secret ^ mask`, the tests' imposter, derives its own.
#[derive(Clone)]
struct Secret {
    exp: u64,
    derived: RefCell<HashMap<u64, u64>>,
}

impl Secret {
    fn new(exp: u64) -> Secret {
        Secret {
            exp,
            derived: RefCell::new(HashMap::new()),
        }
    }
}

impl BitXor<u64> for Secret {
    type Output = Secret;

    fn bitxor(self, mask: u64) -> Secret {
        Secret::new(self.exp ^ mask)
    }
}

impl fmt::Debug for Secret {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.exp.fmt(f)
    }
}

/// A host's identity keypair.
#[derive(Debug, Clone)]
pub struct KeyPair {
    /// Secret exponent.
    secret: Secret,
    /// Public value `g^secret mod p`.
    pub public: u64,
}

impl KeyPair {
    /// Generate a keypair from a host's RNG stream.
    pub fn generate(rng: &mut Rng) -> KeyPair {
        let secret = rng.next_u64() % (P - 2) + 1;
        KeyPair {
            secret: Secret::new(secret),
            public: pow_mod(G, secret),
        }
    }

    /// Shared secret with a peer's public value. The first call per peer
    /// runs the exponentiation; later calls read the stored result.
    pub fn shared_secret(&self, peer_public: u64) -> u64 {
        *self
            .secret
            .derived
            .borrow_mut()
            .entry(peer_public)
            .or_insert_with(|| pow_mod(peer_public, self.secret.exp))
    }
}

/// The proof a client sends for a server challenge.
pub fn proof(shared_secret: u64, nonce: u64) -> [u8; 16] {
    let mut msg = [0u8; 16];
    msg[..8].copy_from_slice(&shared_secret.to_be_bytes());
    msg[8..].copy_from_slice(&nonce.to_be_bytes());
    md5(&msg)
}

/// Server-side session acceptor: knows the set of authorized public keys.
#[derive(Debug, Clone)]
pub struct Acceptor {
    authorized: Vec<u64>,
    keys: KeyPair,
    rng: Rng,
}

/// Outcome of a handshake attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HandshakeResult {
    /// Session established.
    Accepted,
    /// The presented public key is not in `authorized_keys`.
    UnknownKey,
    /// The proof did not verify (wrong secret).
    BadProof,
}

impl Acceptor {
    /// New acceptor with its own identity and an authorized-keys list.
    pub fn new(rng: &mut Rng, authorized: Vec<u64>) -> Self {
        Acceptor {
            authorized,
            keys: KeyPair::generate(rng),
            rng: rng.derive("acceptor"),
        }
    }

    /// The server's public key (sent in its hello).
    pub fn public(&self) -> u64 {
        self.keys.public
    }

    /// Issue a fresh challenge nonce.
    pub fn challenge(&mut self) -> u64 {
        self.rng.next_u64()
    }

    /// Verify a client's handshake.
    pub fn verify(
        &self,
        client_public: u64,
        nonce: u64,
        client_proof: [u8; 16],
    ) -> HandshakeResult {
        if !self.authorized.contains(&client_public) {
            return HandshakeResult::UnknownKey;
        }
        let shared = self.keys.shared_secret(client_public);
        if proof(shared, nonce) == client_proof {
            HandshakeResult::Accepted
        } else {
            HandshakeResult::BadProof
        }
    }
}

/// Run the whole four-message handshake between a client keypair and an
/// acceptor, as the collector does before each transfer.
pub fn handshake(client: &KeyPair, server: &mut Acceptor) -> HandshakeResult {
    // 1. client hello: client's public key. 2. server hello + challenge.
    let nonce = server.challenge();
    // 3. client proof over the shared secret.
    let shared = client.shared_secret(server.public());
    let p = proof(shared, nonce);
    // 4. server verdict.
    server.verify(client.public, nonce, p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dh_shared_secret_agrees() {
        let mut rng = Rng::new(11);
        let a = KeyPair::generate(&mut rng);
        let b = KeyPair::generate(&mut rng);
        assert_eq!(a.shared_secret(b.public), b.shared_secret(a.public));
        assert_ne!(a.public, b.public);
    }

    #[test]
    fn authorized_client_accepted() {
        let mut rng = Rng::new(12);
        let client = KeyPair::generate(&mut rng);
        let mut server = Acceptor::new(&mut rng, vec![client.public]);
        assert_eq!(handshake(&client, &mut server), HandshakeResult::Accepted);
    }

    #[test]
    fn unknown_key_rejected() {
        let mut rng = Rng::new(13);
        let client = KeyPair::generate(&mut rng);
        let stranger = KeyPair::generate(&mut rng);
        let mut server = Acceptor::new(&mut rng, vec![client.public]);
        assert_eq!(
            handshake(&stranger, &mut server),
            HandshakeResult::UnknownKey
        );
    }

    #[test]
    fn wrong_secret_rejected() {
        let mut rng = Rng::new(14);
        let client = KeyPair::generate(&mut rng);
        let imposter = KeyPair {
            secret: client.secret ^ 0xDEAD,
            public: client.public, // claims the same identity
        };
        let mut server = Acceptor::new(&mut rng, vec![client.public]);
        assert_eq!(handshake(&imposter, &mut server), HandshakeResult::BadProof);
    }

    #[test]
    fn pow_mod_basics() {
        assert_eq!(pow_mod(G, 0), 1);
        assert_eq!(pow_mod(G, 1), G);
        assert_eq!(pow_mod(2, 61) % P, pow_mod(2, 61)); // stays reduced
                                                        // Fermat: g^(p-1) ≡ 1.
        assert_eq!(pow_mod(G, P - 1), 1);
    }

    #[test]
    fn mul_mod_matches_u128_remainder() {
        let reference = |a: u64, b: u64| ((u128::from(a) * u128::from(b)) % u128::from(P)) as u64;
        let edges = [0, 1, 2, P - 2, P - 1, 1 << 60];
        for &a in &edges {
            for &b in &edges {
                assert_eq!(mul_mod(a, b), reference(a, b), "{a} × {b}");
            }
        }
        let mut rng = Rng::new(16);
        for _ in 0..200_000 {
            let (a, b) = (rng.next_u64() % P, rng.next_u64() % P);
            assert_eq!(mul_mod(a, b), reference(a, b), "{a} × {b}");
        }
    }

    #[test]
    fn memoized_secrets_still_reject_on_every_attempt() {
        let mut rng = Rng::new(17);
        let client = KeyPair::generate(&mut rng);
        let stranger = KeyPair::generate(&mut rng);
        let mut server = Acceptor::new(&mut rng, vec![client.public]);
        assert_eq!(handshake(&client, &mut server), HandshakeResult::Accepted);
        // Built from a secret that has already derived the server's
        // secret: the imposter's own exponent must not inherit it.
        let imposter = KeyPair {
            secret: client.secret.clone() ^ 0xBEEF,
            public: client.public,
        };
        // A twin drawn once per attempt: the server's nonce stream must
        // stay in step with it, whatever the verdict.
        let mut twin = server.clone();
        let mut attempt = |who: &KeyPair, server: &mut Acceptor| {
            let verdict = handshake(who, server);
            twin.challenge();
            assert_eq!(
                server.clone().challenge(),
                twin.clone().challenge(),
                "one nonce per attempt"
            );
            verdict
        };
        for round in 0..4 {
            assert_eq!(
                attempt(&imposter, &mut server),
                HandshakeResult::BadProof,
                "round {round}"
            );
            assert_eq!(
                attempt(&stranger, &mut server),
                HandshakeResult::UnknownKey,
                "round {round}"
            );
            assert_eq!(
                attempt(&client, &mut server),
                HandshakeResult::Accepted,
                "round {round}"
            );
        }
        // Each side derived each peer's secret once.
        assert_eq!(server.keys.secret.derived.borrow().len(), 1);
        assert_eq!(client.secret.derived.borrow().len(), 1);
    }

    #[test]
    fn one_key_keeps_a_secret_per_peer() {
        // The collector's one key against many acceptors: each peer gets
        // its own derived secret, the same one on every later session.
        let mut rng = Rng::new(18);
        let collector = KeyPair::generate(&mut rng);
        let mut hosts: Vec<Acceptor> = (0..5)
            .map(|_| Acceptor::new(&mut rng, vec![collector.public]))
            .collect();
        for _ in 0..3 {
            for host in &mut hosts {
                assert_eq!(handshake(&collector, host), HandshakeResult::Accepted);
                let want = pow_mod(host.public(), collector.secret.exp);
                assert_eq!(collector.shared_secret(host.public()), want);
            }
        }
        assert_eq!(collector.secret.derived.borrow().len(), hosts.len());
    }

    #[test]
    fn challenges_vary() {
        let mut rng = Rng::new(15);
        let mut server = Acceptor::new(&mut rng, vec![]);
        let a = server.challenge();
        let b = server.challenge();
        assert_ne!(a, b);
    }
}
