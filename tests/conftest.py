import sys
from importlib.util import find_spec
from pathlib import Path

from hypothesis import settings

# make sibling helper modules (oracles.py) importable regardless of cwd
sys.path.insert(0, str(Path(__file__).parent))
# this checkout's src comes last, so a PYTHONPATH or an install decides
# which visco_inverse is tested; the header names the one imported
sys.path.append(str(Path(__file__).parents[1] / "src"))

# property tests draw the same examples on every run and stay within seconds
settings.register_profile("deterministic", derandomize=True, deadline=None, max_examples=40)
settings.load_profile("deterministic")


def pytest_report_header(config):
    # found, not imported, so a package that fails to import still gets its
    # collection errors
    spec = find_spec("visco_inverse")
    return f"visco_inverse: {Path(spec.origin).parent if spec else 'not found'}"
