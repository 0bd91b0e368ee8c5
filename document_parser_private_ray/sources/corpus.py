"""Deterministic synthetic corpus of interleaved text+media span documents.

Produces the ``input_hint`` table (FIXTURES.md §1):

    doc_id: string
    spans:  list<struct<kind: string, text: string,
                        media_ref: string, offset: int32>>

Every document is a pure function of ``(seed, doc_index)`` — generation
is embarrassingly parallel (``ray.data.range(n) -> map_batches``) and
byte-identical across runs and parallelism levels. The grammar draws
from the reference's own fixture vocabulary (heading variants, date
formats, delimiter mixes, fuzzy-variant entity names — SURVEY §5.3) so
the full parse chain is exercised: exact + fuzzy ontology hits, every
date-format branch, PII strings, interleaved image/table media spans,
and a heavy-tailed span-count distribution (FIXTURES §1: log-normal,
~1% huge documents, ~10% one-liners) to exercise skew handling.
"""

from __future__ import annotations

import json
import math
import random
from typing import Dict, List

import pyarrow as pa

from ..schemas import INPUT_SCHEMA

CORPUS_SCHEMA = INPUT_SCHEMA

_FIRST = ["John", "Jane", "Alex", "Sam", "Maria", "Chen", "Aisha", "Lebo", "Nina", "Paul"]
_LAST = ["Smith", "Jones", "Nkosi", "Okafor", "Garcia", "Mokoena", "Li", "Brown", "Dube", "Khan"]
_CITY = [("New York", "NY"), ("Cape Town", "WC"), ("Austin", "TX"), ("Johannesburg", "GP"), ("Seattle", "WA")]

_SUMMARY_HEADINGS = ["SUMMARY", "Summary", "PROFESSIONAL SUMMARY", "ABOUT ME", "Objective"]
_SKILL_HEADINGS = ["SKILLS", "TECHNICAL SKILLS", "SKILLS:", "Technical Skills"]
_EDU_HEADINGS = ["EDUCATION", "ACADEMIC EDUCATION", "Education", "QUALIFICATIONS"]
_EXP_HEADINGS = ["WORK EXPERIENCE", "EXPERIENCE", "EMPLOYMENT HISTORY", "Professional Experience"]
_PROJECT_HEADINGS = ["PROJECTS", "KEY PROJECTS", "Projects"]
_CERT_HEADINGS = ["CERTIFICATIONS", "Certifications", "AWARDS"]
_CONTACT_HEADINGS = ["CONTACT INFO", "PERSONAL DETAILS", "CONTACT"]

_SUMMARY_SENTENCES = [
    "Results-driven engineer with a passion for distributed systems.",
    "Experienced developer focused on data-intensive applications.",
    "Curious builder who enjoys shipping reliable software.",
    "Team player with strong communication abilities.",
    "Background spanning backend services and data pipelines.",
]

# canonical / variant / fuzzy-misspelled skill mentions
_SKILLS = [
    "Python", "Python3", "JavaScript", "JS", "Java", "Core Java",
    "Java (Multithreading)", "Docker", "Docker Compose", "Kubernetes", "K8s",
    "Apache Spark", "PySpark", "Kafka", "Git", "GitHub", "Linux", "Bash",
    "Scrum", "TDD", "REST API", "Spring Boot", "SpringBoot", "React",
    "ReactJS", "PostgreSQL", "Postgres", "MongoDB", "Pythn", "Javascrpt",
    "Languages: Python, Java, Go", "Tools: Docker & Kubernetes",
]
_DEGREES = [
    "BSc", "B.Sc.", "Bachelor of Science", "MSc", "Master of Science",
    "MBA", "PhD", "Bachelor of Arts", "Matric", "BS",
]
_FIELDS = [
    "Computer Science", "Software Engineering", "Data Science",
    "Information Technology", "Electrical Engineering", "Mathematics",
]
_INSTITUTIONS = [
    "MIT", "Stanford University", "Stanford", "University of Cape Town", "UCT",
    "Carnegie Mellon University", "CMU", "WeThinkCode", "Georgia Tech",
    "University of the Witwatersrand", "Wits", "Stellenbosch University",
]
_COMPANIES = [
    "Acme Software Inc", "Globex Corporation", "Initech LLC", "Hooli Inc",
    "Stark Industries Ltd", "Wayne Enterprises Inc", "Takealot Group",
    "Dimension Data Ltd", "Yoco Technologies Inc", "BCX Group",
    "Aperture Labs Inc", "Umbrella Data Corp",
]
_TITLES = [
    "Software Engineer", "Senior Developer", "Sr. SWE", "Junior Developer",
    "Data Scientist", "Project Manager", "Consultant", "Analyst",
    "Software Developer", "Developer",
]
_START_DATES = [
    "Jan 2020", "January 2018", "9/2016", "05/2019", "2015", "Q1 2017",
    "May2021", "Apr-2019", "Sep 2020", "March 2022",
]
_END_DATES = [
    "Dec 2021", "December 2022", "11/2020", "2023", "Present", "Current",
    "Q3 2023", "Jun-2024", "Feb 2024",
]
_BULLETS = [
    "Built data pipelines processing millions of records daily",
    "Led migration of legacy services to containerized deployments",
    "Improved test coverage and introduced TDD practices",
    "Designed REST API endpoints for the customer platform",
    "Mentored junior developers and ran code reviews",
    "Optimized SQL queries cutting report latency in half",
]
_PROJECT_FORMS = [
    "{name} - a warehouse management system",
    "Project {n}: {name}",
    "{n}. {name}",
    "• {name}: inventory tracking tool",
]
_PROJECT_NAMES = ["Stocktake", "LedgerLite", "RouteFinder", "ChatRelay", "FormForge", "PixelBoard"]
_CERTS = [
    "AWS Certified Solutions Architect",
    "Oracle Certified Java Programmer",
    "Certified Kubernetes Administrator",
    "HackerRank Gold Badge",
    "Scrum Master Certificate",
]


def _contact_lines(rng: random.Random, first: str, last: str) -> List[str]:
    city, st = rng.choice(_CITY)
    email = f"{first.lower()}.{last.lower()}{rng.randint(1, 99)}@example.com"
    phone = f"{rng.randint(200, 999)}-{rng.randint(200, 999)}-{rng.randint(1000, 9999)}"
    lines = [f"{phone}", f"{first} {last}", f"{city}, {st}", f"{email}"]
    if rng.random() < 0.4:
        lines.append(f"linkedin.com/in/{first.lower()}-{last.lower()}")
    if rng.random() < 0.3:
        lines.append(f"github.com/{first.lower()}{last.lower()}")
    if rng.random() < 0.1:
        lines.append(f"SSN: {rng.randint(100, 999)}-{rng.randint(10, 99)}-{rng.randint(1000, 9999)}")
    if rng.random() < 0.1:
        lines.append(f"{rng.randint(1, 999)} Main Street")
    return lines


def _experience_entry(rng: random.Random) -> str:
    title = rng.choice(_TITLES)
    company = rng.choice(_COMPANIES)
    start, end = rng.choice(_START_DATES), rng.choice(_END_DATES)
    lines = [f"{title}, {company} ({start} - {end})"]
    for _ in range(rng.randint(1, 3)):
        lines.append(f"• {rng.choice(_BULLETS)}")
    return "\n".join(lines)


def _education_entry(rng: random.Random) -> str:
    degree = rng.choice(_DEGREES)
    field = rng.choice(_FIELDS)
    inst = rng.choice(_INSTITUTIONS)
    start, end = rng.choice(_START_DATES), rng.choice(_END_DATES)
    entry = f"{degree} {field}, {inst} ({start} - {end})"
    if rng.random() < 0.5:
        entry += f"\nGPA: {rng.randint(2, 3)}.{rng.randint(0, 99):02d}"
    if rng.random() < 0.3:
        entry += "\n• Graduated with distinction"
    return entry


def _skills_text(rng: random.Random) -> str:
    n = rng.randint(4, 10)
    chosen = [rng.choice(_SKILLS) for _ in range(n)]
    delim = rng.choice([", ", "; ", " • ", " / ", "\n"])
    return delim.join(chosen)


def _n_spans_for(rng: random.Random) -> int:
    """Heavy-tailed target span count: ~10% tiny, ~1% huge, log-normal body."""
    u = rng.random()
    if u < 0.10:
        return rng.randint(1, 3)
    if u < 0.01 + 0.10:
        return rng.randint(100, 2000)
    return max(4, int(rng.lognormvariate(math.log(12), 0.6)))


def generate_document(doc_index: int, seed: int = 42) -> Dict:
    """One document's row — pure function of (seed, doc_index)."""
    rng = random.Random((seed << 20) ^ doc_index)
    doc_id = f"doc-{doc_index:08d}"
    target = _n_spans_for(rng)
    spans: List[Dict] = []

    def add(kind: str, text: str, media: bool = False):
        offset = len(spans)
        spans.append(
            {
                "kind": kind,
                "text": text,
                "media_ref": f"media://{doc_id}/{offset}" if media else "",
                "offset": offset,
            }
        )

    first, last = rng.choice(_FIRST), rng.choice(_LAST)

    if target <= 3:
        # one-liner résumés; ~half have no section-matching line at all
        # (exercises the fallback "content" section)
        if rng.random() < 0.5:
            add("text", rng.choice(_SUMMARY_SENTENCES))
        else:
            add("heading", rng.choice(_SUMMARY_HEADINGS))
            add("text", rng.choice(_SUMMARY_SENTENCES))
        if len(spans) < target and rng.random() < 0.5:
            add("image", "", media=True)
        return {"doc_id": doc_id, "spans": spans}

    # contact block: headed or entered via a bare phone line
    if rng.random() < 0.5:
        add("heading", rng.choice(_CONTACT_HEADINGS))
    add("text", "\n".join(_contact_lines(rng, first, last)))

    add("heading", rng.choice(_SUMMARY_HEADINGS))
    add("text", " ".join(rng.choice(_SUMMARY_SENTENCES) for _ in range(rng.randint(1, 3))))

    if rng.random() < 0.2:
        add("image", "", media=True)

    add("heading", rng.choice(_SKILL_HEADINGS))
    add("text", _skills_text(rng))

    add("heading", rng.choice(_EDU_HEADINGS))
    for _ in range(rng.randint(1, 2)):
        add("text", _education_entry(rng))

    add("heading", rng.choice(_EXP_HEADINGS))
    # pad with experience entries up to the target span count (huge docs
    # become many-entry CVs — realistic skew shape)
    n_exp = max(1, target - len(spans) - 4)
    for _ in range(n_exp):
        add("text", _experience_entry(rng))
        if rng.random() < 0.03:
            add(
                "table",
                json.dumps([["Metric", "Value"], ["Uptime", f"{rng.randint(90, 100)}%"]]),
                media=True,
            )

    if rng.random() < 0.5:
        add("heading", rng.choice(_PROJECT_HEADINGS))
        form = rng.choice(_PROJECT_FORMS)
        add("text", form.format(name=rng.choice(_PROJECT_NAMES), n=rng.randint(1, 9)))

    if rng.random() < 0.4:
        add("heading", rng.choice(_CERT_HEADINGS))
        add("text", "\n".join(rng.choice(_CERTS) for _ in range(rng.randint(1, 2))))

    if rng.random() < 0.15:
        add("image", "", media=True)

    return {"doc_id": doc_id, "spans": spans}


def generate_batch(doc_indices, seed: int = 42) -> pa.Table:
    """Vector entry point for map_batches: ndarray/sequence of int ids ->
    Arrow table in the corpus schema."""
    rows = [generate_document(int(i), seed) for i in doc_indices]
    return pa.Table.from_pylist(rows, schema=CORPUS_SCHEMA)


def write_corpus_local(out_dir: str, n_docs: int, seed: int = 42, rows_per_file: int = 2000):
    """Driver-side (no Ray) corpus writer for tests/small fixtures."""
    import os

    import pyarrow.parquet as pq

    os.makedirs(out_dir, exist_ok=True)
    for start in range(0, n_docs, rows_per_file):
        idx = range(start, min(start + rows_per_file, n_docs))
        table = generate_batch(idx, seed)
        pq.write_table(table, os.path.join(out_dir, f"part-{start:09d}.parquet"))


def corpus_dataset(n_docs: int, seed: int = 42):
    """Ray Data generation pipeline: range -> map_batches(generate)."""
    import ray.data as rd

    return rd.range(n_docs).map_batches(
        lambda b: generate_batch(b["id"], seed),
        batch_format="numpy",
        batch_size=1000,
    )
