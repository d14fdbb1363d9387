"""Golden digests of the suite reports, with and without fault injection.

Each digest is the sha256 of `run_suite`'s report as the CLI prints it
(`profcalc suite --format json`).  The reports name quotient classes,
witnesses and failing components, so any change to a coend's carrier order,
its class names or a cell's construction order shows up here.  A deliberate
change of report content must regenerate these digests and say so.
"""

import hashlib
import json

import pytest

from profcalc.suites import SuiteConfig, run_suite

CELL_FAULTS = ("mu", "eta", "theta")

# suite -> (seed, instances, fault kinds)
SUITES = {
    "kleisli-coherence": (2026, 3, CELL_FAULTS),
    "relpsm-axioms": (2027, 3, CELL_FAULTS),
    "lax-idempotent": (2028, 2, CELL_FAULTS),
    "day-monoidal": (2030, 2, CELL_FAULTS),
    "operad": (2029, 3, ("unit", "comp")),
}


def _faults(kinds):
    """No fault, then each kind at fault indices 0 and 1."""
    return [(None, 0)] + [(kind, i) for kind in kinds for i in (0, 1)]


GOLDEN = {
    "kleisli-coherence": [
        "d914ecf7c1ee04c7c0653675ccc170eab4582017104b312322a648708657d65e",
        "553ebf80e248e178b49d7b96739a8031467912e9af6206f4c1565634a1aba8f6",
        "acef3cffcb70dbf90b157f2259d37e41ef69a786f98a77c36d05b0e1d475df26",
        "b313950a9ffdb8ce8b6087f43974d9b682e119d242fec206104214b8c8b05452",
        "d1c3e05f4ab66869e704fd7a945771fd4fc3db521f80b7c9a491b04758a14927",
        "6a209f22723f79afcaef708358c4e9e540806ddec3541b5affe48df684c651bf",
        "6b62ec429591edba6527a42a2241125e4fc168b22dee8f65e5397c0dbde91b3e",
    ],
    "relpsm-axioms": [
        "01be6cd63aa4f938fb9a2e35e63eebc64b1390ac2bebcea2579a31eea68bbddb",
        "9789f7ba25cb91fce8d696349e5759b8a6ebb8c60c6ad406a123c46942bb992a",
        "0b07945c8c8cfbeb9ffd3b8d693e18bd215b44b7c8647ff341e9e567827db68f",
        "46540923c2673b85a3e81ebc7d2004632cb4b29bef97603aa15eeeed946d0cc2",
        "cd2abd8da5caec36e1dc1085e18ea187026c5819a11e8d834dd8f0c6975a7128",
        "f735f510132348121574ca03c023f822be19e84938e5cb8966a8f1d87604e0b8",
        "a9679b381f6688d34eb735ade6a838f8cce297c5b580662a1920aaa14de1ba27",
    ],
    "lax-idempotent": [
        "cb9c231c419350b50790bf360eba98bc06b03d0aac44f61010fc87385c589fca",
        "4c106159bc4a600595827a3bc5be51df9e0d3eeecda52f29b0e3f08932dce952",
        "bb9e7328de15e38d23d05b0381f4c3d050e12a71f69620ea9932f405bd6c37cb",
        "7942ad042e7c022dbce0c3e48deb7333dac1f2e4f37e2123f5882ff75a2e0f6a",
        "999555740733844095609ab6b25d9094c5516b60ed2fc7183dd19980ec9280b2",
        "b6777d67c8863e94d704fc202546c9ae429fdc128ab42b848c9e69f26a5bea8f",
        "3a57d60bb992d2d12607e348e8ca60e11d83c821d60302acccf2805db0c90d63",
    ],
    "day-monoidal": [
        "0f27762ace52e468d446192855d90178451f91444312d599968ee93dd28f757a",
        "ea9e6b7cfe93390891b17af708e1a1ae9ef5198addf6712ee670cc9805024e8e",
        "a9264a414b46a71cdd28adc917a5ebdaa418761f611cead0fbf29e812272d028",
        "b2d3ae81f7468aade9168bed558ffad33a36dee2c8120591e67d608ca45fe999",
        "968aeee037290d1024d6cf2a125d44cab41b6dc7224f6aa606543e6274396428",
        "33755fbbf4a5e8c55f44fc78ead4f98f1e154a25fe2c180c86fed3f9f754b5cc",
        "48747529aa469e5e225adb86ad5dbea4e2a4656132be324ef8c90b2ae137de42",
    ],
    "operad": [
        "5a4a493ad499b6f6f3a2b4e8159e3107d4ee5e47adfe03236a874af41e53af99",
        "874dbe0192ba6ce28b7e393d925ef40b7aab7b73579086ccd530649de24c7d12",
        "084d0d905d51e4f2349af29e4cd4d9ad929101ebb78a0ff0cbf9a0c52d4c93fa",
        "6fac7c0cb650d9f1c4f4aee82b95da9b4cbd42d75072b8a016126bcb919e3c46",
        "3d6f90f884519d1bcfbdd4b6d42f43e18d3354d849e93abc46785596e0c3dfb6",
    ],
}


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_suite_reports_match_golden_digests(suite):
    seed, instances, kinds = SUITES[suite]
    faults = _faults(kinds)
    assert len(faults) == len(GOLDEN[suite])
    got = []
    for fault, index in faults:
        config = SuiteConfig(seed=seed, instances=instances, fault=fault, fault_index=index)
        text = json.dumps(run_suite(suite, config), indent=2, sort_keys=True)
        got.append(hashlib.sha256(text.encode()).hexdigest())
    mismatched = [faults[i] for i, (a, b) in enumerate(zip(got, GOLDEN[suite])) if a != b]
    assert mismatched == [], f"{suite}: report digests changed for (fault, index) {mismatched}"
