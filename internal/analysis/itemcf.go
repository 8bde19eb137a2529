package analysis

import (
	"maps"
	"math"
	"slices"
	"sort"
)

// ItemCF is an item-based collaborative filtering recommender (the paper's
// IBCF workload): it computes item-item cosine similarities from a rating
// matrix and predicts a user's rating for an unseen item as the
// similarity-weighted mean of the user's ratings on similar items.
type ItemCF struct {
	// byItem[item][user] = rating
	byItem map[int]map[int]float64
	// byUser[user][item] = rating
	byUser map[int]map[int]float64
	// sims caches the top-K similarity lists per item.
	sims map[int][]ItemSim
	// raters caches each item's users in ascending order, the order
	// Cosine sums in.
	raters map[int][]int
	topK   int
}

// ItemSim is one entry of an item's similarity list.
type ItemSim struct {
	Item int
	Sim  float64
}

// NewItemCF builds the recommender from ratings, keeping topK neighbours
// per item.
func NewItemCF(topK int) *ItemCF {
	return &ItemCF{
		byItem: make(map[int]map[int]float64),
		byUser: make(map[int]map[int]float64),
		sims:   make(map[int][]ItemSim),
		raters: make(map[int][]int),
		topK:   topK,
	}
}

// Add inserts one rating.
func (cf *ItemCF) Add(user, item int, score float64) {
	if cf.byItem[item] == nil {
		cf.byItem[item] = make(map[int]float64)
	}
	cf.byItem[item][user] = score
	if cf.byUser[user] == nil {
		cf.byUser[user] = make(map[int]float64)
	}
	cf.byUser[user][item] = score
	delete(cf.sims, item) // invalidate caches
	delete(cf.raters, item)
}

// ratersOf returns the users who rated item, ascending.
func (cf *ItemCF) ratersOf(item int) []int {
	us, ok := cf.raters[item]
	if !ok {
		us = slices.Sorted(maps.Keys(cf.byItem[item]))
		cf.raters[item] = us
	}
	return us
}

// Cosine computes the cosine similarity between two items' rating vectors
// over their co-rating users. Sums run in ascending user order, so the
// result does not depend on map iteration order.
func (cf *ItemCF) Cosine(a, b int) float64 {
	ra, rb := cf.byItem[a], cf.byItem[b]
	var dot, na, nb float64
	for _, u := range cf.ratersOf(a) {
		va := ra[u]
		na += va * va
		if vb, ok := rb[u]; ok {
			dot += va * vb
		}
	}
	if dot == 0 {
		return 0
	}
	for _, u := range cf.ratersOf(b) {
		nb += rb[u] * rb[u]
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}

// items returns all item ids in ascending order.
func (cf *ItemCF) items() []int {
	items := make([]int, 0, len(cf.byItem))
	for it := range cf.byItem {
		items = append(items, it)
	}
	sort.Ints(items)
	return items
}

// similar returns the top-K most similar items to item, computing and
// caching the list on first use.
func (cf *ItemCF) similar(item int) []ItemSim {
	if s, ok := cf.sims[item]; ok {
		return s
	}
	var list []ItemSim
	for _, other := range cf.items() {
		if other == item {
			continue
		}
		if s := cf.Cosine(item, other); s > 0 {
			list = append(list, ItemSim{Item: other, Sim: s})
		}
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].Sim != list[j].Sim {
			return list[i].Sim > list[j].Sim
		}
		return list[i].Item < list[j].Item
	})
	if len(list) > cf.topK {
		list = list[:cf.topK]
	}
	cf.sims[item] = list
	return list
}

// Predict estimates user's rating for item. The second return is false when
// no co-rated neighbours exist.
func (cf *ItemCF) Predict(user, item int) (float64, bool) {
	urs := cf.byUser[user]
	if len(urs) == 0 {
		return 0, false
	}
	var num, den float64
	for _, is := range cf.similar(item) {
		if r, ok := urs[is.Item]; ok {
			num += is.Sim * r
			den += is.Sim
		}
	}
	if den == 0 {
		return 0, false
	}
	return num / den, true
}

// Recommend returns up to n unseen items ranked by predicted rating.
func (cf *ItemCF) Recommend(user, n int) []ItemSim {
	urs := cf.byUser[user]
	var recs []ItemSim
	for _, item := range cf.items() {
		if _, seen := urs[item]; seen {
			continue
		}
		if p, ok := cf.Predict(user, item); ok {
			recs = append(recs, ItemSim{Item: item, Sim: p})
		}
	}
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].Sim != recs[j].Sim {
			return recs[i].Sim > recs[j].Sim
		}
		return recs[i].Item < recs[j].Item
	})
	if len(recs) > n {
		recs = recs[:n]
	}
	return recs
}
