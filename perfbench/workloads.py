"""The three benchmark workloads: input generators, runners and output checks.

Each workload draws its instances from a fixed pool.  Every pool entry is
named by a family and an index; its input is regenerated from that name alone
(``random.Random("<workload>:<family>:<index>")``), and its expected output is
committed in ``golden.json``.  Entries are grouped into strata by family and
by the outcome the golden file records, so that a round (one entry from every
stratum) always holds the same mix of verdicts and proof methods whatever the
run seed.  The run seed only chooses which pool entries a round takes and in
which order.

All generators here are the benchmark's own code; the package under test
receives only the finished inputs (``RatMatrix`` objects or network files).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re
from fractions import Fraction
from pathlib import Path


def _q(rng: random.Random, hi: int = 8) -> Fraction:
    return Fraction(rng.randint(1, hi), rng.randint(1, hi))


def m_matrix_rows(rng: random.Random, d: int) -> list[list[Fraction]]:
    """Dense, strictly row-dominant, negative off-diagonal: a nonsingular M-matrix."""
    rows = [[-_q(rng) if i != j else Fraction(0) for j in range(d)] for i in range(d)]
    for i in range(d):
        rows[i][i] = -sum(rows[i]) + _q(rng)
    return rows


def p_not_m_rows(rng: random.Random, d: int) -> list[list[Fraction]]:
    """Strictly row-dominant with positive diagonal and mixed-sign off-diagonals.

    Row dominance makes every principal minor positive (a P-matrix, hence
    completely-S); one off-diagonal entry is forced positive so it is not an
    M-matrix.
    """
    rows = [[Fraction(0)] * d for _ in range(d)]
    for i in range(d):
        for j in range(d):
            if i != j:
                rows[i][j] = _q(rng) if rng.random() < 0.5 else -_q(rng)
    rows[0][1] = abs(rows[0][1])
    for i in range(d):
        rows[i][i] = sum(abs(v) for v in rows[i]) + _q(rng)
    return rows


def staircase_rows(rng: random.Random, d: int) -> list[list[Fraction]]:
    """Positive diagonal, negative first subdiagonal, zeros below it, mixed signs above.

    Row dominance keeps it a P-matrix, as the staircase certificate requires.
    The part above the diagonal is dense, so a staircase matrix costs about
    as much to classify as an M-matrix of the same dimension.
    """
    rows = [[Fraction(0)] * d for _ in range(d)]
    for i in range(d):
        if i >= 1:
            rows[i][i - 1] = -_q(rng)
        for j in range(i + 1, d):
            rows[i][j] = _q(rng) if rng.random() < 0.5 else -_q(rng)
        rows[i][i] = sum(abs(v) for v in rows[i]) + _q(rng)
    return rows


def sampled_b(rng: random.Random, d: int) -> list[Fraction]:
    return [Fraction(rng.randint(1, 16), rng.randint(1, 16)) for _ in range(d)]


def _strings(values) -> list:
    return [_strings(v) if isinstance(v, list) else str(v) for v in values]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def input_sha(raw) -> str:
    """Hash of a generated input, as recorded in the golden pool."""
    return _sha256(raw if isinstance(raw, str) else json.dumps(raw, sort_keys=True))


def verify_witness(api, reflection, b, witness) -> str | None:
    """Exact re-check of a non-tightness witness; returns a problem or None."""
    report = api.verify_assignment(api.build_system(reflection, b), witness)
    if not report.ok:
        return "witness violates " + ", ".join(c.label for c in report.failures()[:3])
    if report.is_all_ones:
        return "witness is the all-ones assignment"
    return None


class CertifyLp:
    """``check_tight_system(R, b)`` at d=4: the large-tableau LP path.

    Families: dense M-matrices and completely-S non-M matrices, each at
    b = 1 and at a sampled b.  The M-matrices are always tight; the non-M
    ones split into tight proofs and witness-producing refutations, and
    both outcomes are strata of their own.
    """

    name = "certify-lp"
    dimension = 4
    pool_per_stratum = 16
    strata = (
        "m-unit:tight",
        "m-sampled:tight",
        "pnm-unit:tight",
        "pnm-unit:not_tight",
        "pnm-sampled:tight",
        "pnm-sampled:not_tight",
    )

    def generate(self, family: str, index: int):
        rng = random.Random(f"{self.name}:{family}:{index}")
        kind, b_mode = family.split("-")
        d = self.dimension
        rows = m_matrix_rows(rng, d) if kind == "m" else p_not_m_rows(rng, d)
        b = [Fraction(1)] * d if b_mode == "unit" else sampled_b(rng, d)
        return {"R": _strings(rows), "b": _strings(b)}

    def prepare(self, api, raw, out_dir: Path):
        return api.RatMatrix(raw["R"]), tuple(Fraction(v) for v in raw["b"])

    def run(self, api, inp):
        return api.check_tight_system(*inp)

    def expected(self, out) -> dict:
        return {"tight": out.tight, "optimum": str(out.optimum)}

    def label(self, out) -> str:
        return "tight" if out.tight else "not_tight"

    def recheck(self, api, inp, out) -> str | None:
        if out.tight:
            return None if out.witness is None else "tight verdict carries a witness"
        if out.witness is None:
            return "not-tight verdict without a witness"
        return verify_witness(api, inp[0], inp[1], out.witness)


class ClassifyDecide:
    """``classify_matrix`` + ``has_staircase_sign_pattern`` + ``decide_tight_matrix``.

    The work of ``reflecto classify`` plus ``reflecto tight`` on M-matrices
    at d = 6..9 and staircase matrices at d = 7..9.  A sign certificate
    always fires, so the time goes into 2^d - 1 tiny S-LPs and principal
    minors, never the large tightness LP.  Latency clusters by dimension;
    with one d=6 and two d=7, d=8 and d=9 instances per round, the median
    falls inside the d=8 group and the tail inside the d=9 group, instead of
    on the edge between two groups, where it would jump with the round count.
    """

    name = "classify-decide"
    pool_per_stratum = 10
    strata = tuple(f"m{d}:tight_proven:m_matrix" for d in (6, 7, 8, 9)) + tuple(
        f"stair{d}:tight_proven:staircase_pattern" for d in (7, 8, 9)
    )

    def generate(self, family: str, index: int):
        rng = random.Random(f"{self.name}:{family}:{index}")
        kind, d = re.fullmatch(r"([a-z]+)(\d+)", family).groups()
        generator = m_matrix_rows if kind == "m" else staircase_rows
        rows = generator(rng, int(d))
        return {"R": _strings(rows)}

    def prepare(self, api, raw, out_dir: Path):
        return api.RatMatrix(raw["R"])

    def run(self, api, matrix):
        return (
            api.classify_matrix(matrix),
            api.has_staircase_sign_pattern(matrix),
            api.decide_tight_matrix(matrix),
        )

    def expected(self, out) -> dict:
        report, staircase, decision = out
        return {
            "completely_s": report.is_completely_s,
            "p": report.is_p,
            "m": report.is_m,
            "positive_definite": report.is_positive_definite,
            "failing_subset": None
            if report.failing_subset is None
            else list(report.failing_subset),
            "staircase": staircase,
            "status": decision.status.value,
            "method": None if decision.method is None else decision.method.value,
        }

    def label(self, out) -> str:
        decision = out[2]
        method = "" if decision.method is None else ":" + decision.method.value
        return decision.status.value + method

    def recheck(self, api, matrix, out) -> str | None:
        decision = out[2]
        if decision.witness is None:
            return None
        return verify_witness(api, matrix, decision.b_witness, decision.witness)


_STATUS_RE = re.compile(r'"status": "([a-z_]+)"')
_METHOD_RE = re.compile(r'"method": "([a-z_]+)"')


class AnalyzeCli:
    """``reflecto.cli.main(["analyze", path, "--json"])`` in-process, stdout captured.

    Reentrant lines with K = 14..26 classes on d = 3..4 stations.  The only
    workload where network derivation and the matrix kernels dominate, and
    the only one that times CLI loading and rendering.  Outcomes are
    staircase proofs, M-matrix proofs and LP refutations over sampled b.
    """

    name = "analyze-cli"
    pool_per_stratum = 16
    strata = (
        "fbfs:tight_proven:m_matrix",
        "fbfs:tight_proven:staircase_pattern",
        "fbfs:not_tight",
        "lbfs:tight_proven:staircase_pattern",
    )

    def generate(self, family: str, index: int):
        rng = random.Random(f"{self.name}:{family}:{index}")
        d = rng.randint(3, 4)
        K = rng.randint(14, 26)
        route = list(range(1, d + 1)) + [rng.randint(1, d) for _ in range(K - d)]
        rng.shuffle(route)
        means = []
        for _ in range(K):
            den = rng.randint(1, 4)
            means.append(Fraction(rng.randint(max(1, (den + 3) // 4), 4 * den), den))
        priority = list(range(1, K + 1)) if family == "fbfs" else list(range(K, 0, -1))
        routing = [["1" if j == k + 1 else "0" for j in range(K)] for k in range(K)]
        document = {
            "classes": K,
            "stations": d,
            "station_of_class": route,
            "priority": priority,
            "service_means": _strings(means),
            "arrival_rates": ["1/10"] + ["0"] * (K - 1),
            "routing": routing,
        }
        return json.dumps(document, indent=2) + "\n"

    def prepare(self, api, raw, out_dir: Path):
        path = out_dir / f"net-{_sha256(raw)[:16]}.json"
        path.write_text(raw, encoding="utf-8")
        return str(path)

    def run(self, api, path):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = api.cli.main(["analyze", path, "--json"])
        text = buffer.getvalue()
        status = _STATUS_RE.search(text)
        method = _METHOD_RE.search(text)
        label = ":".join(m.group(1) for m in (status, method) if m is not None)
        # only refutations carry a witness that needs the full text afterwards
        return {
            "exit": code,
            "sha256": _sha256(text),
            "bytes": len(text.encode("utf-8")),
            "label": label,
            "text": text if label == "not_tight" else None,
        }

    def expected(self, out) -> dict:
        return {"exit": out["exit"], "sha256": out["sha256"]}

    def label(self, out) -> str:
        return out["label"]

    def recheck(self, api, path, out) -> str | None:
        if out["text"] is None:
            return None
        document = json.loads(out["text"])
        tightness = document["tightness"]
        reflection = api.RatMatrix(document["matrices"]["R"])
        witness = api.assignment_from_table(tightness["witness"], reflection.rows)
        b = tuple(Fraction(v) for v in tightness["b_witness"])
        return verify_witness(api, reflection, b, witness)


WORKLOADS = {w.name: w for w in (CertifyLp(), ClassifyDecide(), AnalyzeCli())}


def family_of(stratum: str) -> str:
    return stratum.split(":", 1)[0]
