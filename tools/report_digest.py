"""One digest over every built-in report, for byte-identity checks.

Runs each CLI suite at its defaults into ``d/`` and ``run --suite all
--delta 0`` into ``z/`` of a temporary directory, and exports each figure of
``cli.FIGURE_NAMES`` at the default delta into ``f/<name>.csv``. Then prints
the number of files and a sha256 over them. The digest equals the shell pipeline

    for f in $(find . -type f | sort); do echo "$f"; grep -v elapsed_seconds "$f"; done | sha256sum

run in that directory: each file contributes its path and its lines without
the summaries' ``elapsed_seconds``, the one field that varies between runs.
Two checkouts that print the same line write the same reports and figures.
Exits 1 after the digest if any suite or figure exited non-zero.

    python tools/report_digest.py
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from bicombing_lab import cli  # noqa: E402


def digest(root):
    """``(file count, sha256)`` of the files under ``root``, as above."""
    h = hashlib.sha256()
    files = sorted(f"./{p.relative_to(root).as_posix()}"
                   for p in root.rglob("*") if p.is_file())
    for name in files:
        h.update(f"{name}\n".encode())
        for line in (root / name).read_text().splitlines():
            if "elapsed_seconds" not in line:
                h.update(f"{line}\n".encode())
    return len(files), h.hexdigest()


def main():
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        runs = [(f"suite {suite} (d)", ["run", "--suite", suite, "--out", str(root / "d")])
                for suite in cli.SUITES]
        runs.append(("suite all (z)", ["run", "--suite", "all", "--out", str(root / "z"),
                                       "--delta", "0"]))
        runs += [(f"figure {name}", ["figure", "--name", name, "--out",
                                     str(root / "f" / f"{name}.csv")])
                 for name in cli.FIGURE_NAMES]
        for label, argv in runs:
            with contextlib.redirect_stdout(io.StringIO()):
                status = cli.main(argv)
            if status:
                failed = True
                print(f"{label} exited {status}", file=sys.stderr)
        count, sha = digest(root)
    print(f"{count} files sha256={sha}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
