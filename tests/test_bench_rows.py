"""Byte-identity guard: the benchmark's first-pass rows, pinned in git.

Builds the benchmark corpus of ``perfbench/run.py`` (``write_corpus``,
from ``perfbench/corpus.py``) for seeds 1 and 2, certifies each
workload's first pass (its ``WORKLOADS`` images, each under its
``TRANSFORM_FLAGS``) through ``semcert.cli.run_cli``, and compares the
CSV bytes with the rows below: 12 resolvable, 9 rotation and 4 scaling
rows per seed.  A change that moves a row edits its literal in the same
diff, so every re-pin is reviewable.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from semcert.cli import run_cli

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
HEADER = "index,true_label,predicted,verdict,p_a_lower,radius,sqrt_m,samples_used"

# "<transform>/<corpus image>": the CSV row of that one-image certification
ROWS = {
    1: {
        "blur/0":
            "0,6,6,certified,0.9996196155034025,7.181180803090708,,100100",
        "blur/2":
            "0,7,8,not_certified,0.9961654357166505,4.870552285872733,,100100",
        "blur/4":
            "0,5,5,certified,0.9999309248330095,8.887168089073246,,100100",
        "blur/6":
            "0,3,5,not_certified,0.9999309248330095,8.887168089073246,,100100",
        "brightness-contrast/0":
            "0,6,6,certified,0.9995798542877359,2.6623212487249757,,100100",
        "brightness-contrast/2":
            "0,7,8,not_certified,0.9999309248330095,3.055983122553299,,100100",
        "brightness-contrast/4":
            "0,5,5,certified,0.9999309248330095,3.055983122553299,,100100",
        "brightness-contrast/6":
            "0,3,5,not_certified,0.9998354619719583,2.872609807316711,,100100",
        "translation-reflect/0":
            "0,6,6,certified,0.9999309248330095,0.9528641408475778,,100100",
        "translation-reflect/2":
            "0,7,8,not_certified,0.9999309248330095,0.9528641408475778,,100100",
        "translation-reflect/4":
            "0,5,5,certified,0.9999309248330095,0.9528641408475778,,100100",
        "translation-reflect/6":
            "0,3,5,not_certified,0.9999309248330095,0.9528641408475778,,100100",
        "rotation/0":
            "0,6,6,certified,0.8730523664429393,1.1409390993527042,0.4488254430945221,10000",
        "rotation/1":
            "0,6,6,certified,0.6941935209710726,0.5077724137591534,0.39786368873779115,10000",
        "rotation/2":
            "0,7,8,not_certified,0.6658168567681106,,,500",
        "rotation/4":
            "0,5,5,certified,0.8382962529822873,0.9874797730285134,0.35667287387436264,10000",
        "rotation/5":
            "0,3,3,certified,0.6770988990727347,0.4596016120175282,0.06970904421754118,10000",
        "rotation/6":
            "0,3,5,not_certified,0.6686291186912647,,,500",
        "rotation/8":
            "0,8,8,certified,0.8840581800501555,1.1955207350664139,0.5610484547601275,10000",
        "rotation/9":
            "0,1,1,certified,0.5310727046886112,0.07796663872709866,0.04140440514090129,10000",
        "rotation/10":
            "0,9,4,not_certified,0.6574121365852235,,,500",
        "scaling/0":
            "0,6,6,certified,0.8614094269020041,1.0866734621776164,0.023806088984429766,100000",
        "scaling/1":
            "0,6,6,certified,0.6868901353497328,0.48705447185007344,0.02118390577972231,100000",
        "scaling/2":
            "0,7,8,not_certified,0.6955982864943406,,,500",
        "scaling/3":
            "0,5,-1,not_certified,0.21063637828144982,,,500",
    },
    2: {
        "blur/0":
            "0,3,3,certified,0.9959270008902892,4.810228488339093,,100100",
        "blur/2":
            "0,8,3,not_certified,0.8865165009874041,1.4829506552188234,,100100",
        "blur/4":
            "0,8,8,certified,0.9999309248330095,8.887168089073246,,100100",
        "blur/6":
            "0,1,7,not_certified,0.9997441256771877,7.577676979983226,,100100",
        "brightness-contrast/0":
            "0,3,3,certified,0.9973357633517521,2.199725322818474,,100100",
        "brightness-contrast/2":
            "0,8,3,not_certified,0.9273101227920786,1.072647670996587,,100100",
        "brightness-contrast/4":
            "0,8,8,certified,0.9999309248330095,3.055983122553299,,100100",
        "brightness-contrast/6":
            "0,1,7,not_certified,0.9948391175524613,2.0135079680014023,,100100",
        "translation-reflect/0":
            "0,3,3,certified,0.9999309248330095,0.9528641408475778,,100100",
        "translation-reflect/2":
            "0,8,3,not_certified,0.9999309248330095,0.9528641408475778,,100100",
        "translation-reflect/4":
            "0,8,8,certified,0.9999309248330095,0.9528641408475778,,100100",
        "translation-reflect/6":
            "0,1,7,not_certified,0.9999309248330095,0.9528641408475778,,100100",
        "rotation/0":
            "0,3,3,certified,0.9032924882347744,1.3005427227107065,0.5671086677253148,10000",
        "rotation/1":
            "0,2,2,certified,0.5704090785807565,0.1774157423704712,0.05710378699159811,10000",
        "rotation/2":
            "0,8,3,not_certified,0.6658168567681106,,,500",
        "rotation/4":
            "0,8,8,certified,0.9073135143856164,1.324391755635746,0.2935609814493507,10000",
        "rotation/5":
            "0,7,7,certified,0.5998105756295613,0.2528568319444025,0.05619849181400173,10000",
        "rotation/6":
            "0,1,7,not_certified,0.5998105756295613,,,500",
        "rotation/8":
            "0,6,6,certified,0.8730523664429393,1.1409390993527042,0.4488540597711182,10000",
        "rotation/9":
            "0,6,6,certified,0.6462783738232878,0.3752920844758327,0.05722511920829171,10000",
        "rotation/10":
            "0,5,0,not_certified,0.6999400269027038,,,500",
        "scaling/0":
            "0,3,3,certified,0.8687860183671168,1.120670923590887,0.030195175972574546,100000",
        "scaling/1":
            "0,2,2,certified,0.5865172480753957,0.2185950567185293,0.02070005418245539,100000",
        "scaling/2":
            "0,8,3,not_certified,0.7280939079822455,,,500",
        "scaling/3":
            "0,7,-1,not_certified,0.2343542384351024,,,500",
    },
}


@pytest.fixture(scope="module")
def bench():
    """perfbench/run.py as a module, with perfbench/ importable for its corpus."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(BENCH))
        spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        patch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
        spec.loader.exec_module(module)
        yield module


@pytest.fixture(scope="module")
def corpora(bench, tmp_path_factory):
    """Seed -> directory of that seed's corpus, written on first use."""
    dirs = {}

    def corpus(seed):
        if seed not in dirs:
            dirs[seed] = tmp_path_factory.mktemp(f"corpus{seed}")
            bench.write_corpus(dirs[seed], seed)
        return dirs[seed]
    return corpus


@pytest.mark.parametrize("seed", sorted(ROWS))
def test_pins_each_workloads_first_pass(bench, seed):
    levels = list(bench.LEVELS * bench.BLOCKS)
    units = set()
    for workload in bench.WORKLOADS.values():
        images = [i for i, level in enumerate(levels)
                  if level in workload.levels][:workload.images]
        units |= {f"{t}/{i}" for i in images for t in workload.transforms}
    assert len(units) == 25
    assert set(ROWS[seed]) == units


@pytest.mark.parametrize("seed,unit", [(s, u) for s in sorted(ROWS) for u in ROWS[s]])
def test_row_is_byte_identical(bench, corpora, tmp_path, capsys, seed, unit):
    transform, image = unit.split("/")
    workdir = corpora(seed)
    out = tmp_path / "out"
    code = run_cli(["certify", "--transform", transform, *bench.TRANSFORM_FLAGS[transform],
                    "--dataset", str(workdir / f"images-{image}.idx"),
                    "--labels", str(workdir / f"labels-{image}.idx"),
                    "--weights", str(workdir / "classifier.semw"),
                    "--seed", str(seed), "--output", str(out)])
    assert code == 0, capsys.readouterr().err
    assert (tmp_path / "out.csv").read_bytes() == f"{HEADER}\r\n{ROWS[seed][unit]}\r\n".encode()
