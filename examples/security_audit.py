"""Security audit: the demo's adversary storyline (step 3 / Figure 4).

Taps the service provider (recording what it observes while it runs the
same code as any untapped server), runs sensitive queries, then plays the
three attackers of paper Section 2.3 against it:

* DB knowledge  -- read the disk: only uniform-looking shares;
* CPA knowledge -- insert chosen balances, try to match rows: zero hits;
* QR knowledge  -- tap queries/UDF traffic: only the declared leakage
  (comparison sign bits), never a plaintext.

Run:  python examples/security_audit.py
"""

import repro.api as api
from repro.core import security
from repro.core.meta import ValueType
from repro.core.server import SDBServer
from repro.crypto.prf import seeded_rng

COLUMNS = [("account", ValueType.int_()), ("balance", ValueType.decimal(2))]
ROWS = [(i, round(137.5 * i, 2)) for i in range(1, 201)]


def main() -> None:
    server = SDBServer()
    transcript = security.tap(server)  # the adversary taps this machine
    conn = api.connect(server=server, modulus_bits=512, value_bits=64,
                       rng=seeded_rng(3))
    proxy = conn.proxy
    proxy.create_table("accounts", COLUMNS, ROWS, sensitive=["balance"],
                       rng=seeded_rng(4))

    cur = conn.cursor()
    cur.execute("SELECT SUM(balance) AS total FROM accounts").fetchall()
    cur.execute("SELECT account FROM accounts WHERE balance > ?",
                [10000]).fetchall()

    ring = [ValueType.decimal(2).encode(b) % proxy.store.keys.n for _, b in ROWS]

    print("=== DB knowledge: scanning the SP disk for plaintext ===")
    hits = security.scan_for_plaintext(server, ring)
    print(f"plaintext hits: {len(hits)} (expected 0)")
    report = security.share_uniformity(server, proxy.store.keys.n)
    print(f"shares inspected: {report.count}")
    print(f"mean(share/n) = {report.mean_fraction:.4f} (uniform -> 0.5)")
    print(f"top-bit fraction = {report.top_bit_fraction:.4f} (uniform -> 0.5)")
    print(f"uniform-looking: {report.looks_uniform()}")

    print("\n=== CPA knowledge: chosen-plaintext insertions ===")
    attacker = security.CPAAttacker(server)
    attacker.snapshot()
    chosen = [(1000 + i, round(137.5 * i, 2)) for i in range(1, 21)]
    proxy.create_table("attacker_accounts", COLUMNS, chosen,
                       sensitive=["balance"], rng=seeded_rng(5))
    new_shares = server.catalog.get("attacker_accounts").column("balance")
    matches = attacker.match_rows("accounts", "balance", new_shares)
    print(f"pre-existing rows matched by chosen ciphertexts: {matches} (expected 0)")

    print("\n=== QR knowledge: wire/memory tap during queries ===")
    qr = security.QRAttacker(server)
    print(f"plaintexts recovered from UDF traffic: "
          f"{qr.recovered_plaintexts(ring)} (expected 0)")
    observations = qr.observations()
    signs = observations[-1].comparison_signs
    print(f"declared leakage the attacker DOES see: {len(signs)} comparison "
          f"sign bits ({signs.count(1)} rows above the threshold)")
    print("\nrewritten queries visible to the attacker (no plaintext SQL):")
    for sql in transcript.queries[:2]:
        print("  ", sql[:110], "...")

    print("\n=== inference attacks: SDB shares vs CryptDB-style layers ===")
    from repro.baselines.onion import det_encrypt
    from repro.baselines.ope import OPECipher, OPEKey
    from repro.core.attacks import CorrelationProbe, FrequencyAttack, SortingAttack

    # a skewed, low-entropy column: the worst case for leaky encryption
    plain = [100] * 80 + [250] * 60 + [500] * 40 + [1000] * 20
    det = [det_encrypt(b"d" * 32, v) for v in plain]
    ope = OPECipher(OPEKey(key=b"o" * 32)).encrypt_many(plain)
    from repro.crypto.secret_sharing import encrypt_value, item_key

    ck = proxy.store.keys.random_column_key(seeded_rng(6))
    rng = seeded_rng(7)
    sdb = [
        encrypt_value(proxy.store.keys, v,
                      item_key(proxy.store.keys,
                               proxy.store.keys.random_row_id(rng), ck))
        for v in plain
    ]
    for scheme, cells in [("DET", det), ("OPE", ope), ("SDB", sdb)]:
        freq = FrequencyAttack(plain).run(cells, plain, scheme)
        sort = SortingAttack(plain).run(cells, plain, scheme)
        rho = CorrelationProbe.spearman(cells, plain)
        print(f"  {scheme}: frequency {freq.recovery_rate:5.0%}, "
              f"sorting {sort.recovery_rate:5.0%}, rank-corr {rho:+.3f}")
    print("  (DET falls to frequency analysis, OPE to sorting; "
          "SDB stays at guessing level)")


if __name__ == "__main__":
    main()
