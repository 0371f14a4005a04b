"""The token-level presentations and map images, pinned as elements.

A relation row is pinned by the normal forms of its terms, each lhs term as
coeff*word and each rhs term as -coeff*word, so respelling a word, reordering
the terms or moving a term across the sides leaves its digest as it is,
while a changed relation, id or coefficient does not.  The digests were
generated before T_ab, the Jucys-Murphy sums and the Hecke row were each
spelled once.
"""

import hashlib
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from spinhecke import algebras as alg
from spinhecke import morphisms as mo
from spinhecke.cli import main
from spinhecke.clifford_family import z_element
from spinhecke.engine import bracket, element_from_terms, verify_relations
from spinhecke.exprparse import parse_expression
from spinhecke.render import element_json, element_str

PRESENTATIONS = {
    ("sym", 2): "f83164e7e331672493a94678a52659dbd6893e7e799ce3c123c3a72cffcdfa82",
    ("sym", 3): "6c6deecb4655fd9de8776c69452272791d79071b523b24ef7401cd39ce8950c7",
    ("cliffordsym", 2): "8b994a1c598d092c6207a017f3fc8ed957e63c9c59adcfaa14e61904d7cec1de",
    ("cliffordsym", 3): "dae83bc0450c5a0f8eac58cbc66523678e4b286dffa926a3758b3b55c4d7bb4e",
    ("spinsym", 2): "a96124ac8a871a5d79e2a55bc31c3ba51a0477cd226b19f6cf12344884761e6b",
    ("spinsym", 3): "2a76d9580f272707c05b8fe3b7842dd47acadcb850b54031e3320a1bdcdca1d7",
    ("affinehc", 2): "d04cbf1f0866da40d31dedda16cdf3ee9f44c789f0af12cbf1eb0b06778a031c",
    ("affinehc", 3): "46532a970a34aa52e6baa81e70e903088f82ac92c3adfb3c163173ceaa77fc79",
    ("spinaffine", 2): "01e10cde9ef9c0327951a8000bbd1bf8e0ae7bcb73a5e52365d52a21c1542256",
    ("spinaffine", 3): "bea3bb02c6a5e5181bdd9c40580d13241b353bb5d8e154ffa96687c69eb02302",
    ("dahca", 2): "1c985fa55632ae56d545fa0c34403b9253dae129986de460b28ae207b29f2346",
    ("dahca", 3): "5853f0753f2300a7064bf8365cedcb98a7e86eae08e7c491a734667d0e72925b",
    ("dahca_loc", 2): "29b368fb9358cf9322079a757da8b05008d1241cb73464a41e80bf36d6e80b17",
    ("dahca_loc", 3): "c7b6231731903897a4d6c3ebe824198c187ce131b008a2ffb522b5dfb72e8351",
    ("dahca_yfirst", 2): "4166837a2cf86706757404e8772bc633e516c9edf1b7833817afe3c3d24ce33e",
    ("dahca_yfirst", 3): "778cbc2c84465ac4f7a0143271ddde32f3df836744b64e6a8496cd6c4e01c9cd",
    ("sdaha", 2): "2135a6e6c1eea7dc473ea0b0113dee67d5f973d551e32f8be584e3c7bd083e39",
    ("sdaha", 3): "aa6c1e5eceba8097aabd7695fa1f3258d4b4536d41d3221b2637b95819bc6596",
    ("sdaha_loc", 2): "0c75c4f44c53ad969a7e3f7d6bf2d99773690b27bdd43e1b3bb7eee3f52e96fe",
    ("sdaha_loc", 3): "36facbadbce8d3598c8072d38d85238cbb692f78ee0a4b88d7434e65c0d75717",
    ("sdaha_yfirst", 2): "8426db137f4137b7a57959c779096733dfec7e1db31817419fdecac3cacb5373",
    ("sdaha_yfirst", 3): "6e1ff880d85ce66ed72311e06f0fc8067ff2da0a7344376e6a35ac79afa61e75",
    ("trigdahca", 2): "1f6e7c4984a4871dc0814c1a557493aec2941793ed137a64621bfca26aa8bf37",
    ("trigdahca", 3): "ff442fc6b64305131f170c9a3627fcbcfdec7162cbdfa3dcaac1656a4d6453e0",
    ("trigsdaha", 2): "729fe4447221cf541570d98f797edab588ba0129f1d7d5ca62488136470d9fff",
    ("trigsdaha", 3): "3449978f5e2cc419d65ca20e5e1d4629d4b0069f2b7f3fdbdb41932fb5093fc7",
}

IMAGES = {
    ("PhiFin", 2): "5ec7880cb87ddd96b8216c3491ee4f12492521dd98abbebd6931023f1af46e71",
    ("PhiFin", 3): "6634f2248ca55b97f62a867720aa9c8e9229ed7d65c3a6bc41d7419d33bd59f4",
    ("PsiFin", 2): "35650dabf3cff7647293cafe0000e9483921928b4d8a75029c2b21d08ec358f3",
    ("PsiFin", 3): "4eb9d5d6f407613b85764be87509d2317133d0d1aecaefd9a035ab61b0e41d5c",
    ("PhiHat", 2): "fd6ebe2f320708e4a479b08ad333978ac7183a5160e00fd07aad89b1a1d86d97",
    ("PhiHat", 3): "32e11ddf969cb77ec211a85ed80b6474e0d58a2544b86ec7eaf8c2649be1fe18",
    ("PsiHat", 2): "aea6851ecbb2a8feb6db038c8cc28b10de646b0eda42ae5c2a3bdd6d601e5dd5",
    ("PsiHat", 3): "c39efdbd8f59a4bc0f9926a52cc184eea17c980fd3959ab90aac335866776d4a",
    ("Phi", 2): "ff5db1d813c493f2c6116c1cbf09d527fcda5dec516c167eb7e843a5ba270296",
    ("Phi", 3): "eac56f6aa378eb9f74f51626c487d111dee65a4440bcf0687d496628055b8dec",
    ("Psi", 2): "50501cf6e225bc8bdf5229125326497526eac85976aef3f4d0e073510f8b0530",
    ("Psi", 3): "815dfa818a9d95052f1b0ce7ea0d8d6d72eb17bc74417a451fba0f7d8aa4db7f",
    ("PhiTr", 2): "6db360e1ebfe5fa419b8eb793098b5f80dbc56e22448cff6a8265c254e7e1d34",
    ("PhiTr", 3): "a01faa1d2d8efaf7c394164e152f259d4b6c3dff274f3446fc4bde074304ae65",
    ("PsiTr", 2): "f404112d1e47998fddba53ff3988d7447993a7dd8e1a3b9ec4b76827bb23d067",
    ("PsiTr", 3): "7683a99829294b74ddae5403ed2ed71670705d6eab6e99b8066fdc3c9d1db772",
    ("Iota", 2): "13f4143295529560314e2d025c53791eb88e198a768265fbba8a98e3b3eadfc0",
    ("Iota", 3): "032d30ac094fd82ae7ab7637e3d3e2e59f01ce7dd0977fb4ca478f8b55d38627",
    ("J", 2): "1a1daf382f05ed8935c857bc02e19dde25054996ccd292a505e27eb1ab28c725",
    ("J", 3): "1104be63a890e290fc6aa7ca4fd88de474bce498f1ab459be66dd4a8d415288c",
    ("IotaMinus", 2): "5a5fd9a14e562e37b86c8aa0768f5adda0532433724f45b4f183590062b72624",
    ("IotaMinus", 3): "7a3934e52ecad20d55a7455fc418c320002a455d699ac65cf091e4d09701b90b",
    ("JMinus", 2): "276c5cc373d888d79425c1d339202f1d9b1c34f77214d601622280a14ff38461",
    ("JMinus", 3): "55797f0a967381108d23018cd741a4c651e01ceedf98b4d8b8b78ba45f32667c",
    ("IotaLoc", 2): "ec63aa06e1f128f01096ece9210c018a64fc913bbdaab3a3c960d1652284de41",
    ("IotaLoc", 3): "e7883b68b3ea09d47f6932aa3bc72e128b0c88d63004d4fbe228dd5a33df5b71",
    ("IotaMinusLoc", 2): "67951452166b2123d7bdd8475ade807b79e7171be721ec6a976c3dec2a020a45",
    ("IotaMinusLoc", 3): "f6ff3dccf0664eeffc98b4c1a00fdfce881fc1cb855e600fedc35fff40c236d8",
}


def _term_json(sig, coeff, word) -> str:
    return json.dumps(element_json(element_from_terms(sig, [(coeff, word)])), sort_keys=True)


def _presentation_digest(sig) -> str:
    rows = []
    for rel_id, lhs, rhs in sig.relations():
        terms = [_term_json(sig, c, w) for c, w in lhs] + [_term_json(sig, -c, w) for c, w in rhs]
        rows.append([rel_id, sorted(terms)])
    return hashlib.sha256(json.dumps(sorted(rows)).encode()).hexdigest()


def _images_digest(m) -> str:
    rows = sorted(
        (repr(tok), json.dumps(element_json(img), sort_keys=True)) for tok, img in m.images.items()
    )
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def test_every_layout_is_pinned():
    assert {family for family, _ in PRESENTATIONS} == set(alg._LAYOUTS)
    assert {name for name, _ in IMAGES} == set(mo.MORPHISM_NAMES) | {"IotaLoc", "IotaMinusLoc"}


@pytest.mark.parametrize("family, n", sorted(PRESENTATIONS))
def test_presentation_is_pinned(family, n):
    assert _presentation_digest(alg._make(family, n, None)) == PRESENTATIONS[family, n]


@pytest.mark.parametrize("name, n", sorted(IMAGES))
def test_morphism_images_are_pinned(name, n):
    assert _images_digest(mo.named_morphism(name, n)) == IMAGES[name, n]


def _failures(report, prefix: str) -> int:
    return sum(1 for r in report.results if not r.ok and r.id.startswith(prefix))


def test_tables_and_images_check_against_the_engine(monkeypatch):
    """T_ab without its Clifford word breaks the cross and eta rows and the
    Iota images: the engine's own cross rules do not read _t_terms."""
    # the cached tables of Iota's source and target are built before the
    # patch, so the broken images meet the true presentation
    alg.dahca(3).relations()
    alg.trig_dahca(3).relations()
    spell = alg._t_terms
    monkeypatch.setattr(
        alg, "_t_terms", lambda spin, coeff, a, b, head=(): spell(spin, coeff, a, b, head)[:1]
    )
    dahca = verify_relations(alg._make.__wrapped__("dahca", 3, None))
    assert _failures(dahca, "cross") == dahca.n_fail == 9
    trig = verify_relations(alg._make.__wrapped__("trigdahca", 2, None))
    assert _failures(trig, "eta") == trig.n_fail == 20
    iota = mo.check_homomorphism(mo._trig_morphism("Iota", 3))
    assert iota.n_fail == 17 and _failures(iota, "cross") == 5


def test_readme_examples_hold():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["normalize", "--algebra", "dahca", "--n", "2", "--expr", "y1*x1"]) == 0
    assert out.getvalue() == "x1*y1 - u*s12 - u*s12*c1*c2\n"
    assert '--expr "y1*x1"\n#  x1*y1 - u*s12 - u*s12*c1*c2\n' in readme

    d = alg.dahca(2)
    assert element_str(bracket(z_element(2, d), z_element(1, d))) == "0"
    assert "print(element_str(bracket(z2, z_element(1, d))))   # 0\n" in readme
    phi = mo.named_morphism("Phi", 2)
    img = mo.apply_morphism(phi, parse_expression("x1*y1", phi.source))
    assert element_str(img) == "w*c1*xi1*y1"
    assert "print(element_str(img))                      # w*c1*xi1*y1\n" in readme
