package core

import (
	"crypto/sha256"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"dooc/internal/sparse"
	"dooc/internal/spmv"
)

// stagedGrid is one staging the pins below hold to its bytes.
type stagedGrid struct {
	name string
	gen  sparse.GapGenConfig
	k    int
	n    int // nodes
	// files maps every file StageMatrix writes, relative to the root, to the
	// SHA-256 of its bytes.
	files map[string]string
	info  StagedMatrixInfo // NNZ, Bytes, Mirrored, ColumnForms
}

// stagedGrids are four stagings: a full and a mirrored grid at K=4 on 2 nodes,
// a mirrored one whose blocks differ in size (K=5 on 3 nodes) and a full K=2 on
// one node whose long gaps take the 16-bit form. The bytes were recorded from
// the stager that built every block with its own scan of the matrix.
var stagedGrids = []stagedGrid{
	{
		name: "full K=4, 2 nodes",
		gen:  sparse.GapGenConfig{Rows: 603, Cols: 603, D: 8, Seed: 1},
		k:    4, n: 2,
		files: map[string]string{
			"node0/A_000_000.arr": "938fa886c6b2df8fa13218dcabbe368b0dcacba8a87183ab7a65317e0b18881d",
			"node0/A_000_001.arr": "06c36f604c8c8a7ab7309b1af3898d5cbfb399d332e1ae23d582e93e16c77593",
			"node0/A_000_002.arr": "b321bd9ad8d74e53927abbfc6a8355fc1dc807d326fd506d34ed93acd29a8f18",
			"node0/A_000_003.arr": "5068ab5d6cd7d1bbaea2fe4d10cbf599e0306142e766243ff048ff218dbf1639",
			"node0/A_002_000.arr": "011ab57906b9ce93f54256eb8023a7717b9c70d406133ef49157cb73ab50c64b",
			"node0/A_002_001.arr": "fb0d2a13c12fed71dc4318e2195fa9d306ac8928f6d9b57b38099371115d3b41",
			"node0/A_002_002.arr": "25e0117d8567d89bfecfe88ae6c1e7f4923332f4309cfb1490905efd21c86817",
			"node0/A_002_003.arr": "9e72a0ee69390d71fe7b359dd3edaed61374007f58980ca65cd919a5be253d13",
			"node1/A_001_000.arr": "de380ae8d0064b9a930282a5f938cf49237592617fddc7db04bb5e015229cb0b",
			"node1/A_001_001.arr": "be3b754644fdab605bef44f4daca8fab43586fdd54d70256487c4add9e80f4c3",
			"node1/A_001_002.arr": "b0659e8614f2ebce09ce2162cd7cfca698c79787f1700c85581858222f8648d3",
			"node1/A_001_003.arr": "6d6c3a2f1d9992044007a01b16d42e3624f8170b0290b41bab40451b1042361f",
			"node1/A_003_000.arr": "be0cfdc36f6215e4fd2153080872a2ba901f1f55efbd7dea7bcab975a1b63c03",
			"node1/A_003_001.arr": "44a15a056ac660a74e4833270bfa21256cc0a64c2a432b11837f9087fd47a3e0",
			"node1/A_003_002.arr": "9ac19590207a46881cf212d549ba601d20369fa5c450ac27e2e12a89704ed4a5",
			"node1/A_003_003.arr": "b3be464a0087bd3c5d0d250711e866b6acbc2d93d1f36eb70962874847787758",
		},
		info: StagedMatrixInfo{Mirrored: false, NNZ: 42704, Bytes: 398488, ColumnForms: map[string]int{"gap8": 16}},
	},
	{
		name: "mirrored K=4, 2 nodes",
		gen:  sparse.GapGenConfig{Rows: 603, Cols: 603, D: 8, Seed: 2, Symmetric: true},
		k:    4, n: 2,
		files: map[string]string{
			"node0/A_000_000.arr": "11ad96e15f144c75cb49c7f7f604c4a97e81d5bc12b4767d88513d948020ae35",
			"node0/A_000_001.arr": "80aa0b306802c4b3a317be7c9100f9a2a56708447bee4712533b504174f23f6b",
			"node0/A_000_002.arr": "8e62607cc14fb04bedd891513ea60bb2506932eb5f27020e98962eafbd89952d",
			"node0/A_002_002.arr": "e79c3916e53267a1a154c9c25180aa677fc281e25d665e355370b66e1acc49dc",
			"node0/A_002_003.arr": "b33574eb12459cb4dbe73c751e3e1a204203da864bb16f3c67c2f9e37d30b73d",
			"node1/A_001_001.arr": "d5b07824041c3aa175f783b24f84d10c6d3ded21b6a0fd5e24e4adc70821dfc4",
			"node1/A_001_002.arr": "08f6c184dd7cbed438920035b899c322f9f947c4d359d87c06e8c15281e68d79",
			"node1/A_001_003.arr": "26b7b6a65ffaedbe8611ca5d764c63c6c57b7def84918ac37f9df02c80b85f37",
			"node1/A_003_000.arr": "ca0f6936b9f2062c06b3a5e242b49a3a9824b16dc9f1a2aa3502ecad22e0fed4",
			"node1/A_003_003.arr": "bad73c2ebc86517ddc235e42e29405abafdaf9c4611a3dee79e66b49bc6b9dfb",
		},
		info: StagedMatrixInfo{Mirrored: true, NNZ: 43441, Bytes: 207040, ColumnForms: map[string]int{"gap8": 10}},
	},
	{
		name: "mirrored K=5, 3 nodes",
		gen:  sparse.GapGenConfig{Rows: 603, Cols: 603, D: 4, Seed: 3, Symmetric: true},
		k:    5, n: 3,
		files: map[string]string{
			"node0/A_000_000.arr": "d407070e33ad79c9788952a0fb1e269d48378a637c9b00195c5d44c857d38892",
			"node0/A_000_003.arr": "ddd22a55c9b8db2c708b995726b0068b36c540f62fc55c0cff261d0867546d9d",
			"node0/A_000_004.arr": "10a7d5cf794c74f6187f89670a053c75e3351e93572d11500553da82280b2019",
			"node0/A_003_003.arr": "880e6c83d5984e4e6785416dba495d2c07ac931c22b6bf38b889d4f288279760",
			"node0/A_003_004.arr": "4bd551f6b081867aa6e225e1e09ce73f723fd19d01369e4d30ab3d93ef605b74",
			"node1/A_001_000.arr": "1390170e878f040098819d3d6d913d3a535d9de54657e4b697c9906138e412bd",
			"node1/A_001_001.arr": "c198066d29096a62a40618f32f334b5c7756bf7ecf9bb726182c437c17649d29",
			"node1/A_001_003.arr": "4b2b1cd82ae747c604760758f252c7bb0c31f8d44bb82b9ebc181a2e6d08ccb7",
			"node1/A_001_004.arr": "b8b961b6df2e0be206f46281a1b5c3d54ea35b10cf4961b307095bf7d4db366b",
			"node1/A_004_004.arr": "0ddd5fa127eec7686c3b3adea19cb0d0e4dc012ffa2562ef358f4683de50c3dd",
			"node2/A_002_000.arr": "0f99e31ada5a378cb2b781ce153249d8964fd8dc04f49b749d1d9d4855596ad8",
			"node2/A_002_001.arr": "c1426cbe20ffbd1f7c60a725ebaaab0fa6d89a56409454aee4ffc619c99b8bec",
			"node2/A_002_002.arr": "e8489f77344f567858580955ff98440f39b00d02ab45cf553bd7077ce31fc6da",
			"node2/A_002_003.arr": "b009d78a9bb20577e2644dede428862a878c4b06a1ca89abdb5949fc6890ef2e",
			"node2/A_002_004.arr": "01a5a9f66203293516af014e4fb494ea041bcc5199eb661ba99c8542580b0f29",
		},
		info: StagedMatrixInfo{Mirrored: true, NNZ: 81595, Bytes: 380884, ColumnForms: map[string]int{"gap8": 15}},
	},
	{
		name: "full K=2, 1 node",
		gen:  sparse.GapGenConfig{Rows: 701, Cols: 701, D: 128, Seed: 4},
		k:    2, n: 1,
		files: map[string]string{
			"node0/A_000_000.arr": "2ddbef50e1879aea56068f8c2b3c008b55ef3df411f124ebc035a4897235cc6d",
			"node0/A_000_001.arr": "058642d2d4cc0cbd18603d02feaa7ad3c8e49c4707b1fe8b46068a6d3d291835",
			"node0/A_001_000.arr": "69b854bd342d81606a512347931e72c61d56451eb6ccb84e1bfc8ac9fb3f08d4",
			"node0/A_001_001.arr": "0e11d0128ca8509e1164fa7e787ce0600f4fb4b9d6da5bbf7d669ba3fd0d8b34",
		},
		info: StagedMatrixInfo{Mirrored: false, NNZ: 3898, Bytes: 43608, ColumnForms: map[string]int{"gap16": 1, "gap8": 3}},
	},
}

func fileSHA(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(b))
}

// TestStagedBlocksPinned holds staging to its bytes: every file StageMatrix
// writes, the blocks LoadMatrixInMemory hands the stores, and what
// DiscoverStagedMatrix reads back off the files.
func TestStagedBlocksPinned(t *testing.T) {
	for _, g := range stagedGrids {
		m, err := sparse.GapMatrix(g.gen)
		if err != nil {
			t.Fatal(err)
		}
		cfg := SpMVConfig{Dim: g.gen.Rows, K: g.k, Iters: 1, Nodes: g.n}
		root := t.TempDir()
		if err := StageMatrix(root, m, cfg); err != nil {
			t.Fatal(err)
		}
		got := make(map[string]string)
		err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			rel, err := filepath.Rel(root, path)
			if err == nil {
				got[filepath.ToSlash(rel)] = fileSHA(t, path)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		if !maps.Equal(got, g.files) {
			var names []string
			for name := range got {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				if got[name] != g.files[name] {
					t.Errorf("%s: %s is %s, pinned %q", g.name, name, got[name], g.files[name])
				}
			}
			for name := range g.files {
				if _, ok := got[name]; !ok {
					t.Errorf("%s: %s was not written", g.name, name)
				}
			}
		}

		info, err := DiscoverStagedMatrix(root)
		if err != nil {
			t.Fatal(err)
		}
		if info.Dim != g.gen.Rows || info.K != g.k || info.Nodes != g.n || info.NNZ != m.NNZ() ||
			info.NNZ != g.info.NNZ || info.Bytes != g.info.Bytes || info.Mirrored != g.info.Mirrored ||
			!maps.Equal(info.ColumnForms, g.info.ColumnForms) {
			t.Errorf("%s: discovered %+v, pinned %+v (dim %d, K %d, %d nodes, %d nnz)", g.name, info, g.info, g.gen.Rows, g.k, g.n, m.NNZ())
		}

		sys, err := NewSystem(Options{Nodes: g.n})
		if err != nil {
			t.Fatal(err)
		}
		if err := LoadMatrixInMemory(sys, m, cfg); err != nil {
			t.Fatal(err)
		}
		for u := 0; u < g.k; u++ {
			for v := 0; v < g.k; v++ {
				name := spmv.MatrixArray(u, v)
				file := fmt.Sprintf("node%d/%s.arr", cfg.OwnerOf(u), name)
				b, err := sys.Store(cfg.OwnerOf(u)).ReadAll(name)
				if _, staged := g.files[file]; !staged {
					if err == nil {
						t.Errorf("%s: LoadMatrixInMemory stored %s, which StageMatrix does not write", g.name, name)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s: %s: %v", g.name, name, err)
				}
				if sum := fmt.Sprintf("%x", sha256.Sum256(b)); sum != g.files[file] {
					t.Errorf("%s: LoadMatrixInMemory stored %s as %s, StageMatrix pinned %s", g.name, name, sum, g.files[file])
				}
			}
		}
		sys.Close()
	}
}

// BenchmarkStageMatrix stages the benchmark's 3000² matrix at d = 8 on a
// K=4 grid over 2 nodes, full and — the symmetric matrix — mirrored,
// through to the block files. B/op and allocs/op are gated in make
// perf-gate: a block row split, the staged blocks' arrays and one encode
// image a stage.
func BenchmarkStageMatrix(b *testing.B) {
	for _, c := range []struct {
		name      string
		symmetric bool
	}{{"full", false}, {"mirrored", true}} {
		b.Run(c.name, func(b *testing.B) {
			m, err := sparse.GapMatrix(sparse.GapGenConfig{Rows: 3000, Cols: 3000, D: 8, Seed: 1, Symmetric: c.symmetric})
			if err != nil {
				b.Fatal(err)
			}
			cfg := SpMVConfig{Dim: 3000, K: 4, Iters: 1, Nodes: 2}
			root := b.TempDir()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := StageMatrix(root, m, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
