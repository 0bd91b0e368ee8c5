"""The user-editable YAML config surface (S8 extension parity):
shipped defaults == engine constants, and a custom parsing_rules.yaml
reshapes the section vocabulary end-to-end through the Ray stage."""

import textwrap

from document_parser_private_ray import config as C


def test_shipped_yaml_defaults_equal_constants():
    parsing = C.load_yaml_config(C.default_config_path("parsing_rules.yaml"))
    assert C.section_patterns_from_config(parsing) == {
        k: list(v) for k, v in C.SECTION_PATTERNS.items()
    }

    pii = C.load_yaml_config(C.default_config_path("pii_config.yaml"))
    rules = C.pii_rules_from_config(pii)
    assert rules["detection_rules"] == C.PII_RULES["detection_rules"]
    assert rules["replacement_strategy"] == C.PII_RULES["replacement_strategy"]
    assert rules["hash_salt"] == C.PII_RULES["hash_salt"]

    groups = C.pattern_groups_from_config(
        C.load_yaml_config(C.default_config_path("patterns.yaml"))
    )
    assert groups["skill_patterns"]["stop_words"] == C.SKILL_PATTERNS["stop_words"]
    assert groups["education_patterns"] == {
        k: list(v) for k, v in C.EDUCATION_PATTERNS.items()
    }
    assert (
        groups["experience_patterns"]["title_abbreviations"]
        == [list(p) for p in C.EXPERIENCE_PATTERNS["title_abbreviations"]]
    )


def test_reference_shape_and_r_string_artifact():
    # the reference's own pii_config.yaml stores patterns as literal
    # python raw-string source ("r'\\b...'"); the loader strips it
    cfg = {
        "detection_rules": {"email": ["r'\\b[a-z]+@[a-z]+\\.com\\b'"]},
        "replacement_strategy": "mask",
    }
    rules = C.pii_rules_from_config(cfg)
    assert rules["detection_rules"]["EMAIL"] == ["\\b[a-z]+@[a-z]+\\.com\\b"]
    assert rules["replacement_strategy"] == "mask"


def test_custom_pii_yaml_flows_to_anonymizer(tmp_path):
    import yaml

    from document_parser_private_ray.functions.pii import PIIAnonymizer

    p = tmp_path / "pii.yaml"
    p.write_text(
        yaml.safe_dump(
            {
                "detection_rules": {"badge": [r"\bBADGE-\d{4}\b"]},
                "replacement_strategy": "token",
            }
        )
    )
    config = C.pii_rules_from_config(C.load_yaml_config(str(p)))
    anon = PIIAnonymizer(config)
    text = "employee BADGE-1234 entered"
    anonymized, pii_map = anon.anonymize(text)
    assert "BADGE-1234" not in anonymized
    assert len(pii_map) == 1 and pii_map[0]["type"] == "BADGE"


def test_custom_section_vocabulary_end_to_end(ray_session, tmp_path):
    """A user parsing_rules.yaml with a NEW section ('publications')
    must reshape detection through the distributed stage."""
    import ray.data as rd
    import yaml

    from document_parser_private_ray.stages.parse import DetectSectionsStage

    custom = {
        "detection_rules": {
            "patterns": {
                "sections": {
                    "publications": {
                        "patterns": [r"^publications$", r"selected\s+papers"],
                        "required": False,
                    },
                    "summary": {"patterns": [r"^summary$"], "required": False},
                }
            }
        }
    }
    p = tmp_path / "parsing_rules.yaml"
    p.write_text(yaml.safe_dump(custom))
    loaded = C.load_yaml_config(str(p))

    rows = [
        {
            "doc_id": "d1",
            "spans": [
                {"kind": "heading", "text": "PUBLICATIONS", "media_ref": "", "offset": 0},
                {"kind": "text", "text": "Paper A, Paper B", "media_ref": "", "offset": 1},
                {"kind": "heading", "text": "SUMMARY", "media_ref": "", "offset": 2},
                {"kind": "text", "text": "a researcher", "media_ref": "", "offset": 3},
            ],
        }
    ]
    ds = rd.from_items(rows)
    out = ds.map_batches(
        DetectSectionsStage(section_patterns=loaded),
        batch_format="pyarrow",
    ).take_all()
    sections = {s["name"]: s["content"] for s in out[0]["sections"]}
    assert "publications" in sections
    assert "Paper A, Paper B" in sections["publications"]
    assert "a researcher" in sections.get("summary", "")
