import lazyfatpandas.pandas as pd
pd.analyze()
df = pd.read_csv('dso.csv')
peek = df[['v1', 'v2', 'v3', 'category']]
print(peek.head())
print(peek.describe())
top = df.sort_values(['v1'], ascending=False)
sel = top[['id', 'v1', 'v5']]
print(sel.head(10))
avg = df.v5.mean()
print(f'v5 mean: {avg}')
