"""Fixture: plaintext must not reach a generated wire stub (taint-to-wire).

The per-op client methods are generated from the op table, so they have
no bodies to follow; the analyzer knows from the table's ``value`` and
``sql`` fields which stubs ship their arguments.  ``bad_*`` functions
are seeded violations the analyzer must flag; their ``ok_*`` twins are
the corrected forms it must stay silent on.  The file is *parsed* by the
analyzer, never imported.
"""

from repro.analysis.contracts import plaintext_source, sanitizer


@plaintext_source
def decrypt_cell(share, key):
    return share * key


@sanitizer
def mask(value, key):
    return value * key


def bad_bind_plaintext(remote, stmt, share, key):
    plain = decrypt_cell(share, key)
    remote.execute_prepared(stmt, [plain])  # a ``value`` field


def bad_plaintext_in_sql(remote, share, key):
    plain = decrypt_cell(share, key)
    remote.execute(f"SELECT id FROM t WHERE v = {plain}")  # a ``sql`` field


def ok_bind_masked(remote, stmt, share, key):
    plain = decrypt_cell(share, key)
    remote.execute_prepared(stmt, [mask(plain, key)])


def ok_plain_fields_carry_no_payload(remote, shares, key):
    # ``fetch_rows`` has only ``int`` fields: a row count is not plaintext
    cells = [decrypt_cell(s, key) for s in shares]
    remote.fetch_rows(7, len(cells))
