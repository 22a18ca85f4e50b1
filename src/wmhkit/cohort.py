"""Cohort CSV ingestion, demographic summaries, and a synthetic generator.

CSV schema (header names matched case-insensitively, extra columns ignored):
id, age, sex, education, apoe4, diagnosis, icv_ml, wmh_stackgen_ml,
wmh_adni_ml, adni_ef, adni_mem, adni_lan. Only id and diagnosis columns are
required to exist; any cell other than id may be empty.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass, fields

import numpy as np

from .errors import DuplicateId, EmptyCohort, FormatError, InputError, MissingHeader, UnknownDiagnosis

DIAGNOSES = ("CN", "MCI", "AD")

_SEX_SYNONYMS = {"f": "F", "female": "F", "m": "M", "male": "M"}

# CLI-facing aliases for record attributes
_FIELD_ALIASES = {
    "icv": "icv_ml",
    "wmh_stackgen": "wmh_stackgen_ml",
    "wmh_adni": "wmh_adni_ml",
}

class CohortParseWarning(UserWarning):
    """A cell was unparseable or out of range and was treated as missing."""


@dataclass
class SubjectRecord:
    id: str
    age: float | None = None
    sex: str | None = None  # "F" or "M"
    education: float | None = None
    apoe4: int | None = None  # risk-allele count, 0-2
    diagnosis: str | None = None  # CN, MCI, or AD
    icv_ml: float | None = None
    wmh_stackgen_ml: float | None = None
    wmh_adni_ml: float | None = None
    adni_ef: float | None = None
    adni_mem: float | None = None
    adni_lan: float | None = None


_CSV_COLUMNS = tuple(f.name for f in fields(SubjectRecord))


def resolve_field(name: str) -> str:
    """Map a CLI-facing field name (or alias) to a SubjectRecord attribute."""
    attr = _FIELD_ALIASES.get(name.lower(), name.lower())
    if attr not in _CSV_COLUMNS:
        raise InputError(f"unknown cohort field {name!r}")
    return attr


def numeric_field(name: str) -> str:
    """``resolve_field`` of a field that holds numbers, as an outcome or
    exposure must; id, sex and diagnosis are text."""
    attr = resolve_field(name)
    if attr in ("id", "sex", "diagnosis"):
        raise InputError(f"cohort field {name!r} is not numeric")
    return attr


def _warn(row: int, column: str, value: str, why: str) -> None:
    warnings.warn(
        f"row {row}: {column}={value!r} {why}; treated as missing",
        CohortParseWarning,
        stacklevel=3,
    )


def _parse_float(raw: str, row: int, column: str) -> float | None:
    text = raw.strip()
    if not text:
        return None
    try:
        value = float(text)
    except ValueError:
        _warn(row, column, raw, "is not numeric")
        return None
    if not math.isfinite(value):
        _warn(row, column, raw, "is not finite")
        return None
    return value


def _bounded_float(raw: str, row: int, column: str, allow_zero: bool = False) -> float | None:
    """``_parse_float`` of a cell that must be positive, or non-negative with
    ``allow_zero``; a value out of that range warns and reads as missing."""
    value = _parse_float(raw, row, column)
    if value is not None and (value < 0 if allow_zero else value <= 0):
        _warn(row, column, raw, "must be non-negative" if allow_zero else "must be positive")
        return None
    return value


def _csv_rows(data: bytes | str):
    """A csv reader over CSV text or UTF-8 bytes; a leading byte-order mark,
    as Excel's "CSV UTF-8" writes, is dropped, and other bytes are a FormatError."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8-sig")
        except UnicodeDecodeError as exc:
            raise FormatError(f"CSV is not UTF-8: {exc}") from None
    return csv.reader(io.StringIO(data))


def parse_cohort_csv(data: bytes | str) -> list[SubjectRecord]:
    """Parse cohort CSV bytes into typed subject records.

    Unparseable numeric cells become missing values with a CohortParseWarning
    per cell; unknown diagnosis strings and duplicated ids are hard errors.
    """
    reader = _csv_rows(data)
    try:
        header = next(reader)
    except StopIteration:
        raise MissingHeader("cohort CSV is empty") from None
    columns = [h.strip().lower() for h in header]
    if "id" not in columns or "diagnosis" not in columns:
        raise MissingHeader(f"cohort CSV must declare id and diagnosis columns, got {header}")
    index = {name: i for i, name in enumerate(columns)}

    def cell(row: list[str], name: str) -> str:
        i = index.get(name)
        return row[i] if i is not None and i < len(row) else ""

    records: list[SubjectRecord] = []
    seen: set[str] = set()
    for rownum, row in enumerate(reader, start=2):
        if not any(c.strip() for c in row):
            continue
        sid = cell(row, "id").strip()
        if sid in seen:
            raise DuplicateId(f"row {rownum}: id {sid!r} appears more than once")
        seen.add(sid)

        diag_raw = cell(row, "diagnosis").strip()
        diagnosis = None
        if diag_raw:
            diagnosis = diag_raw.upper()
            if diagnosis not in DIAGNOSES:
                raise UnknownDiagnosis(f"row {rownum}: diagnosis {diag_raw!r} not in {DIAGNOSES}")

        sex_raw = cell(row, "sex").strip()
        sex = None
        if sex_raw:
            sex = _SEX_SYNONYMS.get(sex_raw.lower())
            if sex is None:
                _warn(rownum, "sex", sex_raw, "is not F/M")

        age = _bounded_float(cell(row, "age"), rownum, "age")
        education = _bounded_float(cell(row, "education"), rownum, "education", allow_zero=True)
        apoe4_f = _parse_float(cell(row, "apoe4"), rownum, "apoe4")
        apoe4 = None
        if apoe4_f is not None:
            if apoe4_f in (0.0, 1.0, 2.0):
                apoe4 = int(apoe4_f)
            else:
                _warn(rownum, "apoe4", cell(row, "apoe4"), "must be an allele count 0-2")
        icv = _bounded_float(cell(row, "icv_ml"), rownum, "icv_ml")

        records.append(
            SubjectRecord(
                id=sid,
                age=age,
                sex=sex,
                education=education,
                apoe4=apoe4,
                diagnosis=diagnosis,
                icv_ml=icv,
                **{col: _parse_float(cell(row, col), rownum, col)
                   for col in ("wmh_stackgen_ml", "wmh_adni_ml", "adni_ef", "adni_mem", "adni_lan")},
            )
        )
    return records


def write_cohort_csv(records) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for rec in records:
        row = []
        for col in _CSV_COLUMNS:
            value = getattr(rec, col)
            row.append("" if value is None else (f"{value!r}" if isinstance(value, float) else str(value)))
        writer.writerow(row)
    return buf.getvalue().encode("utf-8")


def parse_numeric_columns(data: bytes | str, columns: list[str]) -> list[tuple[float, ...]]:
    """Rows of the named numeric columns from any CSV; incomplete rows dropped."""
    reader = _csv_rows(data)
    try:
        header = [h.strip().lower() for h in next(reader)]
    except StopIteration:
        raise MissingHeader("CSV is empty") from None
    idx = []
    for col in columns:
        try:
            idx.append(header.index(col.strip().lower()))
        except ValueError:
            raise InputError(f"CSV has no column named {col!r}") from None
    out = []
    for row in reader:
        try:
            values = tuple(float(row[i]) for i in idx)
        except (ValueError, IndexError):
            continue
        if all(math.isfinite(v) for v in values):
            out.append(values)
    return out


# ---------------------------------------------------------------------------
# summaries


@dataclass(frozen=True)
class GroupSummary:
    n: int
    age_mean: float | None
    age_min: float | None
    age_max: float | None
    sex_f: int
    sex_m: int
    education_mean: float | None
    education_min: float | None
    education_max: float | None


@dataclass(frozen=True)
class CohortSummary:
    groups: dict[str, GroupSummary]  # keyed CN/MCI/AD (+ "NA" when present)
    overall_n: int

    def to_dict(self) -> dict:
        return {
            "overall_n": self.overall_n,
            "groups": {k: vars(g) for k, g in self.groups.items()},
        }


def _agg(values: list[float]) -> tuple[float | None, float | None, float | None]:
    if not values:
        return None, None, None
    return float(np.mean(values)), float(min(values)), float(max(values))


def summarize(records) -> CohortSummary:
    """Per-diagnosis demographic aggregates (means unrounded)."""
    records = list(records)
    if not records:
        raise EmptyCohort("no subject records to summarize")
    keys = [d for d in DIAGNOSES if any(r.diagnosis == d for r in records)]
    if any(r.diagnosis is None for r in records):
        keys.append("NA")
    groups = {}
    for key in keys:
        members = [
            r for r in records
            if (r.diagnosis is None and key == "NA") or r.diagnosis == key
        ]
        age_mean, age_min, age_max = _agg([r.age for r in members if r.age is not None])
        edu_mean, edu_min, edu_max = _agg(
            [r.education for r in members if r.education is not None]
        )
        groups[key] = GroupSummary(
            n=len(members),
            age_mean=age_mean,
            age_min=age_min,
            age_max=age_max,
            sex_f=sum(1 for r in members if r.sex == "F"),
            sex_m=sum(1 for r in members if r.sex == "M"),
            education_mean=edu_mean,
            education_min=edu_min,
            education_max=edu_max,
        )
    return CohortSummary(groups=groups, overall_n=len(records))


# ---------------------------------------------------------------------------
# synthetic cohorts


def synthetic_cohort(
    n_per_group: tuple[int, int, int] = (193, 73, 24),
    f_per_group: tuple[int, int, int] = (111, 30, 8),
    seed: int = 0,
    wmh_effect: float = 0.0,
    target_exposure_t: float | None = None,
    noise_sd: float = 1.0,
) -> list[SubjectRecord]:
    """Generate a cohort with known covariate structure and score model.

    Cognition composites follow a linear model on the standard covariates plus
    ``wmh_effect`` per mL of lesion volume with independent Gaussian noise.
    When ``target_exposure_t`` is given, the effect size is calibrated from
    the realized design so the expected exposure t-statistic is -target
    (negative: larger lesion volumes mean worse scores).
    """
    rng = np.random.default_rng(seed)
    age_ranges = {"CN": (56, 86), "MCI": (57, 88), "AD": (55, 87)}
    edu_ranges = {"CN": (8, 20), "MCI": (8, 20), "AD": (12, 20)}
    diag_shift = {"CN": 0.0, "MCI": -0.5, "AD": -1.2}

    records: list[SubjectRecord] = []
    for diagnosis, n_group, n_f in zip(DIAGNOSES, n_per_group, f_per_group):
        lo_a, hi_a = age_ranges[diagnosis]
        lo_e, hi_e = edu_ranges[diagnosis]
        for i in range(n_group):
            wmh = float(np.clip(np.exp(rng.normal(1.2, 0.9)), 0.1, 60.0))
            records.append(
                SubjectRecord(
                    id=f"SUBJ{len(records) + 1:04d}",
                    age=float(rng.integers(lo_a, hi_a + 1)),
                    sex="F" if i < n_f else "M",
                    education=float(rng.integers(lo_e, hi_e + 1)),
                    apoe4=int(rng.choice([0, 1, 2], p=[0.6, 0.3, 0.1])),
                    diagnosis=diagnosis,
                    icv_ml=float(np.clip(rng.normal(1450.0, 120.0), 1100.0, 1900.0)),
                    wmh_stackgen_ml=wmh,
                    wmh_adni_ml=float(np.clip(wmh * np.exp(rng.normal(0.15, 0.35)), 0.05, 120.0)),
                )
            )
    rng.shuffle(records)
    for i, rec in enumerate(records):
        rec.id = f"SUBJ{i + 1:04d}"

    effect = wmh_effect
    if target_exposure_t is not None:
        # SE of the exposure coefficient for this realized design, unit noise
        from .stats import DEFAULT_COVARIATES, build_design_matrix

        probe = [SubjectRecord(**vars(r)) for r in records]
        for r in probe:
            r.adni_ef = 0.0
        dm = build_design_matrix(probe, "adni_ef", "wmh_stackgen", DEFAULT_COVARIATES)
        xtx_inv = np.linalg.inv(dm.X.T @ dm.X)
        se_unit = math.sqrt(xtx_inv[1, 1])
        effect = -abs(target_exposure_t) * noise_sd * se_unit

    for rec in records:
        base = (
            -0.02 * (rec.age - 72.0)
            + 0.0005 * (rec.icv_ml - 1450.0)
            + 0.03 * (rec.education - 16.0)
            - 0.1 * rec.apoe4
            + diag_shift[rec.diagnosis]
            + effect * rec.wmh_stackgen_ml
        )
        rec.adni_ef = base + float(rng.normal(0.0, noise_sd))
        rec.adni_mem = base + float(rng.normal(0.0, noise_sd))
        rec.adni_lan = base + float(rng.normal(0.0, noise_sd))
    return records
