// Package netemtest holds what tests of the layers built on netem share.
package netemtest

import (
	"errors"
	"fmt"

	"starlinkperf/internal/netem"
)

// CheckPools returns an error naming each pool of nw (netem.Network.Pools)
// whose Gets and Puts differ: once a campaign has drained, none does.
func CheckPools(nw *netem.Network) error {
	var err error
	nw.Pools(func(name string, st netem.PoolStats) {
		if st.Gets != st.Puts {
			err = errors.Join(err, fmt.Errorf("%s pool: %d drawn, %d returned: %d unaccounted for",
				name, st.Gets, st.Puts, int64(st.Gets)-int64(st.Puts)))
		}
	})
	return err
}
