"""Correctness checks on the items' exit codes and stdout.

Every item must exit with its expected code.  Its stdout is compared
byte for byte (by SHA-256) with the output recorded in `golden/` when
the recording has an item with the same argv and the same input file
contents; for the default seed every item must have one.  Independently
of the recording, for any seed:

- a generated module's character value equals the product of the values
  of its interval summands (the character is multiplicative on direct
  sums), and a value with shifted summands equals the plain value times
  the shifted vertices' variables;
- verify-triangle items print that the multiplication identity holds;
- verify-an items end with PASS;
- enumerate items find the cluster-variable count of their finite type;
- capped enumerations stop with exit code 3, print nothing on stdout and
  print the cap message on stderr (a failed Laurent division or any other
  mathematical error also exits 3, with another message).
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def item_key(argv, root: Path) -> str:
    """The argv with every input file replaced by a digest of its contents."""
    out = []
    for token in argv:
        path = root / token
        out.append("@" + digest(path.read_bytes())[:16] if path.is_file() else token)
    return " ".join(out)


def load_golden(workload: str) -> dict:
    path = GOLDEN_DIR / ("%s.json" % workload)
    if not path.is_file():
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["items"]


# -- Laurent polynomials as {((name, exponent), ...): coefficient} ------------


def parse_laurent(text: str) -> dict:
    """Parse clusterchar's canonical rendering, e.g. ``x1^-1*x2 - 2*x3 + 1``."""
    text = text.strip()
    if text == "0":
        return {}
    if text.startswith("-"):
        text = "0 - " + text[1:]
    poly: dict = {}
    tokens = re.split(r" ([+-]) ", text)
    for k in range(0, len(tokens), 2):
        sign = -1 if k and tokens[k - 1] == "-" else 1
        factors = tokens[k].split("*")
        coeff = int(factors.pop(0)) if factors[0].isdigit() else 1
        exps: dict[str, int] = {}
        for f in factors:
            name, _, power = f.partition("^")
            exps[name] = exps.get(name, 0) + int(power or 1)
        _add_term(poly, exps, sign * coeff)
    return poly


def _add_term(poly: dict, exps: dict, coeff: int) -> None:
    key = tuple(sorted((n, e) for n, e in exps.items() if e))
    total = poly.get(key, 0) + coeff
    if total:
        poly[key] = total
    else:
        poly.pop(key, None)


def mul_laurent(p: dict, q: dict) -> dict:
    out: dict = {}
    for k1, c1 in p.items():
        for k2, c2 in q.items():
            exps = dict(k1)
            for name, e in k2:
                exps[name] = exps.get(name, 0) + e
            _add_term(out, exps, c1 * c2)
    return out


def _value(stdout: str) -> dict:
    for line in stdout.splitlines():
        if line.startswith("laurent: "):
            return parse_laurent(line[len("laurent: "):])
    raise ValueError("no laurent line in xvalue output")


# -- per-pass check ------------------------------------------------------------


def check_pass(items: list[dict], keys: list[str], results: list, golden: dict,
               require_golden: bool) -> list[str]:
    """Failure messages, one per failing item (empty when all pass)."""
    by_id = {item["id"]: k for k, item in enumerate(items)}
    failures = []
    for k, item in enumerate(items):
        code, _, out, err = results[k][:4]
        try:
            problem = _check_item(item, keys[k], code, out, err, results, by_id,
                                  golden, require_golden)
        except ValueError as exc:
            problem = str(exc)
        if problem:
            failures.append("%s: %s" % (item["id"], problem))
    return failures


def _check_item(item, key, code, out, err, results, by_id, golden, require_golden):
    if code != item["exit"]:
        return "exit code %d, expected %d" % (code, item["exit"])
    recorded = golden.get(key)
    if recorded is not None:
        if recorded != [code, digest(out.encode("utf-8"))]:
            return "stdout differs from the recorded output"
    elif require_golden:
        return "no recorded output for this item"
    check = item["check"]
    if "product" in check:
        expected = {(): 1}
        for factor in check["product"]:
            expected = mul_laurent(expected, _value(results[by_id[factor]][2]))
        if _value(out) != expected:
            return "value is not the product of its interval summands' values"
    if "times" in check:
        shift = {}
        for label in check["shifts"].split(","):
            shift["x" + label] = shift.get("x" + label, 0) + 1
        expected = mul_laurent(_value(results[by_id[check["times"]]][2]),
                               {tuple(sorted(shift.items())): 1})
        if _value(out) != expected:
            return "shifted value is not the plain value times the shift monomial"
    if check.get("identity") and "multiplication identity holds" not in out:
        return "multiplication identity reported as failing"
    if check.get("pass") and not out.rstrip().endswith(": PASS"):
        return "verify-an did not report PASS"
    if "count" in check and not out.startswith("%d cluster variables\n" % check["count"]):
        return "expected %d cluster variables" % check["count"]
    if check.get("empty") and out:
        return "expected no output on stdout"
    if "stderr" in check and err != check["stderr"]:
        return "stderr %r, expected %r" % (err[:200], check["stderr"])
    return None
