import lazyfatpandas.pandas as pd
import matplotlib.pyplot as plt
pd.analyze()
ratings = pd.read_csv('mov.csv')
movies = pd.read_csv('mov_titles.csv')
m = ratings.merge(movies, on=['movie_id'], how='inner')
g1 = m.groupby(['genre'])['rating'].mean()
plt.plot(g1)
g2 = m.groupby(['genre'])['rating'].count()
print(g2)
avg = m.rating.mean()
print(f'overall rating: {avg}')
