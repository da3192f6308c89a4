"""sdradlint still sees every parser of the apps as a domain body.

R2 (domain-heap escape) and R3 (rewind-unsafe side effects) check only
the functions the domain-body registry classifies. A refactor that moves
a parser behind a helper the registry cannot follow would silently take
it out of both rules while ``make lint-domains`` stays green. This test
parses every ``src/repro/apps/*.py`` and pins the registry's verdict.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.model import ModuleModel

APPS = Path(__file__).resolve().parent.parent / "src" / "repro" / "apps"

#: (module, qualname, why the registry classified it), recorded before TLS
#: was served through the shared serving core; memcached's command parser is
#: the one loop ``_parse_commands``.
_DOMAIN_BODIES = {
    ("http.py", "parse_pipeline_in_domain", "first parameter is a DomainHandle"),
    ("http.py", "parse_request_in_domain", "first parameter is a DomainHandle"),
    ("imagelib.py", "decode_image_unsafe", "sandboxed function"),
    ("memcached_server.py", "_parse_batch_in_domain", "first parameter is a DomainHandle"),
    ("memcached_server.py", "_parse_in_domain", "first parameter is a DomainHandle"),
    ("memcached_server.py", "_parse_commands", "first parameter is a DomainHandle"),
    ("tls.py", "mask_record_in_domain", "first parameter is a DomainHandle"),
    ("tls.py", "process_heartbeat_in_domain", "first parameter is a DomainHandle"),
}


def test_apps_domain_bodies_pinned():
    found = set()
    for path in sorted(APPS.glob("*.py")):
        model = ModuleModel.parse(str(path), path.read_text())
        found.update(
            (path.name, info.qualname, info.domain_body_reason)
            for info in model.functions
            if info.is_domain_body
        )
    assert found == _DOMAIN_BODIES
