"""tools/reach.py: the functions it finds, the calls it sees, and its allowlist."""

import importlib.util
from pathlib import Path

import selfmaps
from selfmaps.cm_elliptic import CurveModel, TorsionPoint
from selfmaps.elliptic_pbundle import EllipticBundleDescriptor, SplitTorsion, scan_primes
from selfmaps.group_condition import _split_rows
from selfmaps.qorders import OrderParams

REPO = Path(__file__).resolve().parents[1]
PACKAGE = Path(selfmaps.__file__).resolve().parent


def _load_reach():
    spec = importlib.util.spec_from_file_location("reach", REPO / "tools" / "reach.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_allowlisted_name_is_a_function_of_the_package():
    reach = _load_reach()
    names = set(reach.defined_functions(PACKAGE).values())
    assert sorted(reach.read_allowlist(REPO / "tools" / "reach_allowlist.txt") - names) == []


def test_entered_sees_helper_threads_and_decorated_functions():
    # upper runs on the helper thread of _split_rows, which sys.setprofile
    # alone does not see; missing is a property, whose code object starts
    # at its decorator's line
    reach = _load_reach()
    desc = EllipticBundleDescriptor(curve=CurveModel.cm(OrderParams(0, 1)), bundle=SplitTorsion(TorsionPoint(5, (4, 2))))
    report = scan_primes(desc, 30)

    def run():
        _split_rows(lambda lo, hi: None, 1024)
        return report.missing

    seen = {(str(Path(file).resolve()), line) for file, line in reach.entered(run)}
    keys = {name: key for key, name in reach.defined_functions(PACKAGE).items()}
    names = ["selfmaps.group_condition._split_rows.<locals>.upper", "selfmaps.elliptic_pbundle.ScanReport.missing"]
    assert [keys[name] in seen for name in names] == [True, True]
