package experiment

import "testing"

// goldenDigests pins the canonical seed-1 Report.Digest of every registered
// experiment. The digest covers everything a report renders — ID, title,
// header, measured rows (unless Volatile), paper rows, notes and the full
// series CSV — so these values freeze the observable behaviour of the whole
// scenario/engine/coordinator stack.
//
// A digest change here means the simulation's output changed. That is
// sometimes intentional (a calibration change, a new column, a new series);
// when it is, regenerate the value and record why in EXPERIMENTS.md. It is
// never acceptable for a pure refactor: the scenario-harness extraction is
// provably behaviour-preserving exactly because this map did not move.
var goldenDigests = map[string]string{
	"ablate-dataage":  "84e8eb4a0ec6bd57068f2118bbbae2707820d8ec7d1346a2ddc5f92676a48525",
	"ablate-e2e":      "b15b8b412b61e8b72a2fd990461c34be68fd51e01c7b10ed0f8ce8f83d112347",
	"ablate-gammacap": "6a6d63a9a27b8e2833d460d9ec0600c71985f3f9693f47041de6d4f7589235a5",
	"ext-aeb":         "294fb210824cd80f0138aeab86ed1197ae86d5fcbe064294b42ca5ae771995d4",
	"ext-fleet":       "a7109966f5467a97f90ba89f67338d5f925b12c30a5e44c3bc5922bb05c2c7d6",
	"ext-dual":        "3dbb056751a3f936066d34cab2869485eb0db011295f322ba9aee6d4cfd6f0c4",
	"ext-tune":        "975c8672a9bafb4b8ad590e90e04b3d535a60407cc594c85346df4fb68cfbbf2",
	"fig12":           "508ef37c42d8480a9ca1441400ded3a2ef3d2228516aa36ae14c7478fddc2a63",
	"fig13":           "067026c9316163c47ea14e463d12f470ba9a0d67d5ccf116405408d9b96cb595",
	"fig14":           "1446fd2b2195162bbae030e830d643535442bda55ae8cffcfa983e029a97e688",
	"fig15":           "cca31332a80d7f5fdea701b077f1d156806a532bba09bc2852f63a3a547d8d01",
	"fig16":           "b76ff49ca50f27681fe98b5e7f0781e07d009cfba0938f81e70f84e09c6c30a3",
	"fig17":           "b8e73143482261e4d5226087241842964fe580457c0f7290ae62130c27845f8f",
	"fig18":           "a3fe06a2a3b497ca0b206090488dee840692544df59d9c353455dda1f5cf6246",
	"fig4":            "10f801a6837cb4ef00af7f0cd1b9ef29c6281a6f87973523b5e50e7abb9504b3",
	"fig5":            "9155ec1e74f48591048b5243c7201508da82d3bc57897c68479f8ee09bb3ebac",
	"overhead":        "86431b253a129b9de5fea443e9060d5eb4778e3b1eae60c9ce29ec5ac5019f8f",
	"sweep-procs":     "ea21f3f9882266729de49d94b1c54cb566360058a1f2db541339b9c763b58864",
	"table2":          "902fc46d14a3ea64bc9f4b9aeda882c955f3b9122f73d6eb44c9a71b8be6f019",
	"table3":          "19426dc1e4e81787a17066bb2a7a17b3e3e9e11d2af1c3ea521f18b1f725b28e",
	"table4":          "99faf3a10203a851f1e3b33b6832dd236f2fc9174d35750f6638db82512d1b4c",
	"table5":          "407082be4d2a9deecb71d362a74b3a8741627d3f631115e04ed38a1577167de9",
	"table6":          "1c80db7331cc3ff2b797de2edd17233c2d8f0b27fe993ccfd9282e8e7cebd0a5",
}

// TestGoldenDigests runs every registered experiment on the canonical seed
// and asserts its digest against the pinned value and the frozen reference
// implementation. Every experiment must be pinned: a new registration
// without a golden entry fails the test.
func TestGoldenDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep")
	}
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			want, ok := goldenDigests[id]
			if !ok {
				t.Fatalf("experiment %q has no golden digest; run it on seed 1, pin the value and note the addition in EXPERIMENTS.md", id)
			}
			rep, err := Run(id, 1)
			if err != nil {
				t.Fatal(err)
			}
			got := assertFrozen(t, rep)
			if got != want {
				t.Errorf("digest %s, want %s\nthe experiment's observable output changed; if intentional, update the golden and document the change in EXPERIMENTS.md", got, want)
			}
		})
	}
	for id := range goldenDigests {
		if _, ok := Lookup(id); !ok {
			t.Errorf("golden digest pinned for unregistered experiment %q", id)
		}
	}
}
